#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "rtos/rtos.hpp"
#include "sim/assert.hpp"
#include "sim/kernel.hpp"
#include "sim/time.hpp"

using namespace slm;
using namespace slm::trace;
using namespace slm::time_literals;

TEST(Trace, ExecSpansBecomeIntervals) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "PE0", "B2");
    rec.exec_end(10_us, "PE0", "B2");
    rec.exec_begin(20_us, "PE0", "B2");
    rec.exec_end(25_us, "PE0", "B2");
    const auto ivs = rec.intervals("B2");
    ASSERT_EQ(ivs.size(), 2u);
    EXPECT_EQ(ivs[0], (Interval{0_us, 10_us, "B2"}));
    EXPECT_EQ(ivs[1], (Interval{20_us, 25_us, "B2"}));
}

TEST(Trace, TaskStateRunningMakesIntervals) {
    TraceRecorder rec;
    rec.task_state(0_us, "PE0", "t", "Running");
    rec.task_state(5_us, "PE0", "t", "Ready");
    rec.task_state(9_us, "PE0", "t", "Running");
    rec.task_state(12_us, "PE0", "t", "Terminated");
    const auto ivs = rec.intervals("t");
    ASSERT_EQ(ivs.size(), 2u);
    EXPECT_EQ(ivs[0], (Interval{0_us, 5_us, "t"}));
    EXPECT_EQ(ivs[1], (Interval{9_us, 12_us, "t"}));
}

TEST(Trace, OpenIntervalClosedAtTraceEnd) {
    TraceRecorder rec;
    rec.task_state(0_us, "PE0", "t", "Running");
    rec.marker(30_us, "end");
    const auto ivs = rec.intervals("t");
    ASSERT_EQ(ivs.size(), 1u);
    EXPECT_EQ(ivs[0].end, 30_us);
}

TEST(Trace, OpenExecSpanClosedAtTraceEnd) {
    TraceRecorder rec;
    rec.exec_begin(10_us, "PE0", "t");
    rec.irq(40_us, "PE0", "ext");  // last record defines the trace end
    const auto ivs = rec.intervals("t");
    ASSERT_EQ(ivs.size(), 1u);
    EXPECT_EQ(ivs[0].begin, 10_us);
    EXPECT_EQ(ivs[0].end, 40_us);
}

TEST(Trace, OpenIntervalAtVeryEndOfTraceIsDropped) {
    // The span opens on the final record: closing it at the trace end would
    // make it zero-length, and zero-length intervals never surface.
    TraceRecorder rec;
    rec.marker(0_us, "start");
    rec.exec_begin(10_us, "PE0", "t");
    EXPECT_TRUE(rec.intervals("t").empty());
}

TEST(Trace, ZeroLengthIntervalsDropped) {
    TraceRecorder rec;
    rec.task_state(5_us, "PE0", "t", "Running");
    rec.task_state(5_us, "PE0", "t", "Ready");
    EXPECT_TRUE(rec.intervals("t").empty());
}

TEST(Trace, BusyTimeSumsIntervals) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "", "a");
    rec.exec_end(10_us, "", "a");
    rec.exec_begin(50_us, "", "a");
    rec.exec_end(65_us, "", "a");
    EXPECT_EQ(rec.busy_time("a"), 25_us);
}

TEST(Trace, ActorsInOrderOfAppearance) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "", "z");
    rec.exec_begin(1_us, "", "a");
    rec.task_state(2_us, "", "m", "Running");
    rec.exec_end(3_us, "", "z");
    EXPECT_EQ(rec.actors(), (std::vector<std::string>{"z", "a", "m"}));
}

TEST(Trace, ConcurrentExecutionDetected) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "PE0", "a");
    rec.exec_begin(5_us, "PE0", "b");  // overlaps a
    rec.exec_end(10_us, "PE0", "a");
    rec.exec_end(12_us, "PE0", "b");
    EXPECT_TRUE(rec.has_concurrent_execution("PE0"));
}

TEST(Trace, SerializedExecutionPasses) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "PE0", "a");
    rec.exec_end(5_us, "PE0", "a");
    rec.exec_begin(5_us, "PE0", "b");
    rec.exec_end(9_us, "PE0", "b");
    EXPECT_FALSE(rec.has_concurrent_execution("PE0"));
}

TEST(Trace, ZeroLengthOverlapIsNotConcurrency) {
    // b's exec span is instantaneous inside a's span: it drops out of the
    // interval view entirely, so it must not count as concurrent execution.
    TraceRecorder rec;
    rec.exec_begin(0_us, "PE0", "a");
    rec.exec_begin(5_us, "PE0", "b");
    rec.exec_end(5_us, "PE0", "b");
    rec.exec_end(10_us, "PE0", "a");
    EXPECT_FALSE(rec.has_concurrent_execution("PE0"));
}

TEST(Trace, ConcurrencyCheckScopedToCpu) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "PE0", "a");
    rec.exec_begin(1_us, "PE1", "b");  // different PE: overlap is fine
    rec.exec_end(5_us, "PE0", "a");
    rec.exec_end(6_us, "PE1", "b");
    EXPECT_FALSE(rec.has_concurrent_execution("PE0"));
    EXPECT_FALSE(rec.has_concurrent_execution("PE1"));
}

TEST(Trace, IrqTimesFiltered) {
    TraceRecorder rec;
    rec.irq(3_us, "PE0", "uart");
    rec.irq(7_us, "PE0", "timer");
    rec.irq(9_us, "PE0", "uart");
    EXPECT_EQ(rec.irq_times().size(), 3u);
    EXPECT_EQ(rec.irq_times("uart"), (std::vector<SimTime>{3_us, 9_us}));
    EXPECT_TRUE(rec.irq_times("spurious").empty());  // unknown name: no matches
}

TEST(Trace, IrqTimesIgnoreOtherKinds) {
    // A marker or task_state sharing an IRQ's name must not leak into the
    // filtered view -- the filter is kind-first, name-second.
    TraceRecorder rec;
    rec.marker(1_us, "uart");
    rec.task_state(2_us, "PE0", "uart", "Running");
    rec.irq(5_us, "PE0", "uart");
    EXPECT_EQ(rec.irq_times("uart"), (std::vector<SimTime>{5_us}));
}

TEST(Trace, ContextSwitchCountByCpu) {
    TraceRecorder rec;
    rec.context_switch(1_us, "PE0", "a", "<idle>");
    rec.context_switch(2_us, "PE1", "x", "<idle>");
    rec.context_switch(3_us, "PE0", "b", "a");
    EXPECT_EQ(rec.context_switches(), 3u);
    EXPECT_EQ(rec.context_switches("PE0"), 2u);
    EXPECT_EQ(rec.context_switches("PE1"), 1u);
}

TEST(Trace, CountByKind) {
    TraceRecorder rec;
    rec.marker(0_us, "m1");
    rec.irq(1_us, "", "i");
    rec.marker(2_us, "m2");
    EXPECT_EQ(rec.count(RecordKind::Marker), 2u);
    EXPECT_EQ(rec.count(RecordKind::Irq), 1u);
    EXPECT_EQ(rec.count(RecordKind::ContextSwitch), 0u);
}

TEST(Trace, ClearResets) {
    TraceRecorder rec;
    rec.marker(0_us, "m");
    rec.clear();
    EXPECT_EQ(rec.size(), 0u);
}

TEST(Trace, OutOfOrderRecordTripsAssert) {
    // Checked in every build type: the record is rejected, not appended.
    TraceRecorder rec;
    rec.marker(10_us, "late");
    const sim::AssertHandler prev =
        sim::set_assert_handler(+[](const sim::AssertInfo&) { throw 1; });
    EXPECT_THROW(rec.task_state(5_us, "PE0", "t", "Running"), int);
    sim::set_assert_handler(prev);
    EXPECT_EQ(rec.size(), 1u);
}

TEST(SpecTraceAdapterTest, RecordsDelayStepsAsExecution) {
    sim::Kernel k;
    TraceRecorder rec;
    SpecTraceAdapter adapter{k, rec, "PE0"};
    k.add_observer(&adapter);
    k.spawn("B2", [&] {
        k.waitfor(30_us);
        k.waitfor(20_us);
    });
    k.spawn("B3", [&] { k.waitfor(40_us); });
    k.run();
    EXPECT_EQ(rec.busy_time("B2"), 50_us);
    EXPECT_EQ(rec.busy_time("B3"), 40_us);
    EXPECT_TRUE(rec.has_concurrent_execution("PE0"));  // spec model overlaps
    EXPECT_EQ(rec.intervals("B2").size(), 2u);
}

TEST(SpecTraceAdapterTest, EventWaitsAreNotExecution) {
    sim::Kernel k;
    TraceRecorder rec;
    SpecTraceAdapter adapter{k, rec, "PE0"};
    k.add_observer(&adapter);
    sim::Event e{k, "e"};
    k.spawn("waiter", [&] {
        k.wait(e);          // idle: no span
        k.waitfor(10_us);   // computing: span
    });
    k.spawn("notifier", [&] {
        k.waitfor(25_us);
        k.notify(e);
    });
    k.run();
    const auto ivs = rec.intervals("waiter");
    ASSERT_EQ(ivs.size(), 1u);
    EXPECT_EQ(ivs[0].begin, 25_us);
    EXPECT_EQ(ivs[0].end, 35_us);
}

TEST(SpecTraceAdapterTest, FilterExcludesTestbench) {
    sim::Kernel k;
    TraceRecorder rec;
    SpecTraceAdapter adapter{k, rec, "PE0"};
    adapter.set_filter([](const std::string& name) { return name != "device"; });
    k.add_observer(&adapter);
    k.spawn("device", [&] { k.waitfor(10_us); });
    k.spawn("B1", [&] { k.waitfor(10_us); });
    k.run();
    EXPECT_EQ(rec.actors(), (std::vector<std::string>{"B1"}));
}

/// One task on `os` that runs 10 us from t = 0.
rtos::Task* start_one_task(sim::Kernel& k, rtos::RtosModel& os) {
    os.init();
    rtos::Task* t = os.task_create("a", rtos::TaskType::Aperiodic, {}, {}, 1);
    k.spawn("a", [&os, t] {
        os.task_activate(t);
        os.time_wait(10_us);
        os.task_terminate();
    });
    os.start();
    return t;
}

TEST(RtosTraceAdapterTest, AdapterMayDieBeforeItsCore) {
    sim::Kernel k;
    TraceRecorder rec;
    rtos::RtosModel os{k};
    auto tracer = std::make_unique<RtosTraceAdapter>(os, rec);
    const rtos::Task* t = start_one_task(k, os);
    k.run_until(5_us);
    const std::size_t recorded = rec.size();
    EXPECT_EQ(rec.context_switches("cpu0"), 1u);
    tracer.reset();  // detaches: the core's later events reach no dead observer
    k.run();
    EXPECT_EQ(t->state(), rtos::TaskState::Terminated);
    EXPECT_EQ(rec.size(), recorded);
}

TEST(RtosTraceAdapterTest, CoreMayDieBeforeItsAdapter) {
    TraceRecorder rec;
    std::unique_ptr<RtosTraceAdapter> tracer;
    {
        sim::Kernel k;
        rtos::RtosModel os{k};
        tracer = std::make_unique<RtosTraceAdapter>(os, rec);
        start_one_task(k, os);
        k.run();
    }  // ~OsCore raises on_core_teardown: the adapter drops its core
    EXPECT_EQ(rec.context_switches("cpu0"), 1u);
    tracer.reset();  // must not touch the dead core
}

TEST(Trace, GanttRendersRows) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "PE0", "B2");
    rec.exec_end(50_us, "PE0", "B2");
    rec.exec_begin(50_us, "PE0", "B3");
    rec.irq(75_us, "PE0", "ext");
    rec.exec_end(100_us, "PE0", "B3");
    const std::string g = rec.render_gantt(0_us, 100_us, 20);
    // B2 occupies the first half, B3 the second.
    EXPECT_NE(g.find("|##########..........|"), std::string::npos) << g;
    EXPECT_NE(g.find("|..........##########|"), std::string::npos) << g;
    EXPECT_NE(g.find('^'), std::string::npos);
}

TEST(Trace, UtilizationReport) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "PE0", "a");
    rec.exec_end(50_us, "PE0", "a");
    rec.exec_begin(50_us, "PE0", "b");
    rec.exec_end(75_us, "PE0", "b");
    const std::string rep = rec.utilization_report(SimTime::zero(), 100_us);
    EXPECT_NE(rep.find("a"), std::string::npos);
    EXPECT_NE(rep.find("50.0%"), std::string::npos) << rep;
    EXPECT_NE(rep.find("25.0%"), std::string::npos) << rep;
}

TEST(Trace, UtilizationReportClipsToWindow) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "PE0", "a");
    rec.exec_end(100_us, "PE0", "a");
    // Window covers only the second half of the interval.
    const std::string rep = rec.utilization_report(50_us, 100_us);
    EXPECT_NE(rep.find("100.0%"), std::string::npos) << rep;
    EXPECT_NE(rep.find("50 us"), std::string::npos) << rep;
}

TEST(Trace, CsvExport) {
    TraceRecorder rec;
    rec.task_state(2_us, "PE0", "t", "Running");
    std::ostringstream os;
    rec.write_csv(os);
    EXPECT_EQ(os.str(), "t_ns,kind,cpu,actor,detail\n2000,task_state,PE0,t,Running\n");
}

TEST(Trace, ChromeTraceExport) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "PE0", "task_a");
    rec.irq(2_us, "PE0", "ext");
    rec.exec_end(4_us, "PE0", "task_a");
    std::ostringstream os;
    rec.write_chrome_trace(os);
    const std::string j = os.str();
    EXPECT_EQ(j.front(), '[');
    EXPECT_NE(j.find(R"("name":"task_a","ph":"X")"), std::string::npos) << j;
    EXPECT_NE(j.find(R"("dur":4.000)"), std::string::npos) << j;
    EXPECT_NE(j.find(R"("name":"irq:ext","ph":"i")"), std::string::npos);
    EXPECT_NE(j.find(R"("args":{"name":"task_a"})"), std::string::npos);
}

TEST(Trace, ChromeTraceEscapesJsonMetacharacters) {
    // Actor/IRQ names with JSON metacharacters must come out escaped -- an
    // unescaped quote would truncate the string and corrupt the whole file.
    TraceRecorder rec;
    rec.exec_begin(0_us, "PE0", "say \"hi\"\\now");
    rec.irq(2_us, "PE0", "line\nbreak");
    rec.exec_end(4_us, "PE0", "say \"hi\"\\now");
    std::ostringstream os;
    rec.write_chrome_trace(os);
    const std::string j = os.str();
    EXPECT_NE(j.find(R"("name":"say \"hi\"\\now")"), std::string::npos) << j;
    EXPECT_NE(j.find(R"("name":"irq:line\nbreak")"), std::string::npos) << j;
    EXPECT_EQ(j.find("say \"hi\""), std::string::npos);  // no unescaped quotes
}

TEST(Trace, JsonEscapeCoversControlChars) {
    EXPECT_EQ(json_escape("plain"), "plain");
    EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
    EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
    EXPECT_EQ(json_escape("a\tb\nc"), "a\\tb\\nc");
    EXPECT_EQ(json_escape(std::string_view{"\x01", 1}), "\\u0001");
}

TEST(Trace, VcdExportStructure) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "", "a");
    rec.exec_end(4_us, "", "a");
    std::ostringstream os;
    rec.write_vcd(os);
    const std::string vcd = os.str();
    EXPECT_NE(vcd.find("$timescale 1ns $end"), std::string::npos);
    EXPECT_NE(vcd.find("$var wire 1 ! a $end"), std::string::npos);
    EXPECT_NE(vcd.find("#0\n"), std::string::npos);
    EXPECT_NE(vcd.find("1!"), std::string::npos);
    EXPECT_NE(vcd.find("#4000\n0!"), std::string::npos);
}

TEST(Trace, ExportersMatchGoldenBytes) {
    // Every RecordKind, a name past the small-string limit, and one that
    // needs JSON escaping; bytes captured from the string-record recorder.
    TraceRecorder rec;
    const std::string enc = "vocoder.codec.encoder_task";
    const std::string ctl = "ctl \"loop\"\\main";
    rec.marker(0_us, "frame \"0\"");
    rec.context_switch(1_us, "DSP0", enc, "<idle>");
    rec.task_state(1_us, "DSP0", enc, "Running");
    rec.exec_begin(2_us, "DSP1", ctl);
    rec.irq(3_us, "DSP0", "audio_subframe_irq");
    rec.channel_op(4_us, "frame_q", "send");
    rec.task_state(5_us, "DSP0", enc, "Ready");
    rec.exec_end(7_us, "DSP1", ctl);
    for (int k = 0; k <= static_cast<int>(RecordKind::Marker); ++k) {
        EXPECT_GT(rec.count(static_cast<RecordKind>(k)), 0u) << k;
    }
    std::ostringstream csv;
    std::ostringstream vcd;
    std::ostringstream chrome;
    rec.write_csv(csv);
    rec.write_vcd(vcd);
    rec.write_chrome_trace(chrome);
    EXPECT_EQ(csv.str(), R"golden(t_ns,kind,cpu,actor,detail
0,marker,,,frame "0"
1000,context_switch,DSP0,vocoder.codec.encoder_task,<idle>
1000,task_state,DSP0,vocoder.codec.encoder_task,Running
2000,exec_begin,DSP1,ctl "loop"\main,
3000,irq,DSP0,audio_subframe_irq,
4000,channel_op,,frame_q,send
5000,task_state,DSP0,vocoder.codec.encoder_task,Ready
7000,exec_end,DSP1,ctl "loop"\main,
)golden");
    EXPECT_EQ(vcd.str(), R"golden($timescale 1ns $end
$scope module trace $end
$var wire 1 ! vocoder.codec.encoder_task $end
$var wire 1 " ctl "loop"\main $end
$upscope $end
$enddefinitions $end
#0
0!
0"
#1000
1!
#2000
1"
#5000
0!
#7000
0"
)golden");
    EXPECT_EQ(chrome.str(), R"golden([
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"vocoder.codec.encoder_task"}},
{"name":"vocoder.codec.encoder_task","ph":"X","pid":1,"tid":1,"ts":1.000,"dur":4.000},
{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"ctl \"loop\"\\main"}},
{"name":"ctl \"loop\"\\main","ph":"X","pid":1,"tid":2,"ts":2.000,"dur":5.000},
{"name":"irq:audio_subframe_irq","ph":"i","pid":1,"tid":0,"ts":3.000,"s":"g"}
]
)golden");
    EXPECT_EQ(rec.render_gantt(SimTime::zero(), 8_us, 32), R"golden(vocoder.codec.encoder_task |....################............|
ctl "loop"\main            |........####################....|
irq                                     ^                   
time                        0 ns .. 8 us
)golden");
    EXPECT_EQ(rec.utilization_report(SimTime::zero(), 8_us), R"golden(actor                       busy        util    intervals
vocoder.codec.encoder_task  4 us         50.0%          1
ctl "loop"\main             5 us         62.5%          1
)golden");
}
