/**
 * @file
 * perfbench entry point: parses the run's arguments, refuses a
 * tuned environment, runs one workload and prints its result as a
 * single JSON line (run.py turns it into the benchmark's output).
 *
 *   perfbench --workload wire_ycsb|tpcc_xshard|heap_gc --seed N
 *             --seconds S --trace 0|1 [--out-dir DIR] [--commit ID]
 *
 * Exit status: 0 when every correctness and durability check
 * passed, 1 when one failed (the result line is still printed),
 * 2 on a usage or environment error (no result line).
 */

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hh"
#include "util/logging.hh"

extern char **environ;

namespace perfbench {

namespace {

std::string commitId = "unknown";

void
printJsonString(const std::string &s)
{
    std::putchar('"');
    for (char c : s) {
        if (c == '"' || c == '\\')
            std::putchar('\\');
        std::putchar(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    std::putchar('"');
}

void
printNumber(double v)
{
    if (std::isfinite(v))
        std::printf("%.10g", v);
    else
        std::printf("null");
}

} // namespace

const std::vector<LayerMetric> kLayerMetrics = {
    {"failed_frac", "ratio"},
    {"read_p99_us", "us"},
    {"recovery_ms", "ms"},
    {"net.frames_per_op", "frames/op"},
    {"net.admission_rejects_per_kop", "count/kop"},
    {"net.protocol_errors", "count"},
    {"net.client_send_us", "us"},
    {"net.overhead_us", "us"},
    {"db.get_us.p50", "us"},
    {"db.get_us.p99", "us"},
    {"db.put_us.p50", "us"},
    {"db.put_us.p99", "us"},
    {"db.txn_body_us", "us"},
    {"db.commit_us.p50", "us"},
    {"db.commit_us.p99", "us"},
    {"db.abort_frac", "ratio"},
    {"db.xshard_frac", "ratio"},
    {"db.recover_ms", "ms"},
    {"commit.txns_per_batch", "txns/batch"},
    {"commit.max_batch", "txns"},
    {"commit.window_timeouts", "count"},
    {"nvm.fences_per_op", "fences/op"},
    {"nvm.lines_per_op", "lines/op"},
    {"nvm.flush_calls_per_op", "calls/op"},
    {"nvm.bytes_per_user_byte", "ratio"},
    {"pjh.pnew_us.p50", "us"},
    {"pjh.pnew_us.p99", "us"},
    {"pjh.map_put_us", "us"},
    {"pjh.map_get_us", "us"},
    {"pjh.bytes_allocated_per_op", "B/op"},
    {"pjh.load_ms", "ms"},
    {"pjh.load_bind_ms", "ms"},
    {"pjh.load_safety_ms", "ms"},
    {"pjh.tail_repairs", "count"},
    {"gc.collections", "count"},
    {"gc.collect_ms.p50", "ms"},
    {"gc.collect_ms.max", "ms"},
    {"gc.mark_ms", "ms"},
    {"gc.compact_ms", "ms"},
    {"gc.conc_mark_ms", "ms"},
    {"gc.remark_ms", "ms"},
    {"gc.marked", "objects"},
    {"trace.overhead_frac", "ratio"},
};

void
Report::zeroLayers(const std::vector<std::string> &prefixes)
{
    for (const LayerMetric &m : kLayerMetrics)
        for (const std::string &p : prefixes)
            if (std::string(m.name).rfind(p, 0) == 0 &&
                !metrics_.count(m.name))
                metric(m.name, 0, m.unit, 0);
}

void
Report::print(const Args &args) const
{
    std::printf("PERFBENCH_RESULT {\"workload\":");
    printJsonString(args.workload);
    std::printf(",\"seed\":%llu,\"seconds\":%u,\"trace\":%d",
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf(",\"correct\":%s,\"attempted\":%llu,\"failed\":%llu",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    std::printf(",\"host\":{\"nproc\":%u,\"client_threads\":%u,"
                "\"compiler\":",
                std::thread::hardware_concurrency(), clientThreads());
    printJsonString(PERFBENCH_COMPILER);
    std::printf(",\"build_type\":");
    printJsonString(PERFBENCH_BUILD_TYPE);
    std::printf(",\"commit\":");
    printJsonString(commitId);
    std::printf("},\"checks\":[");
    for (std::size_t i = 0; i < messages_.size(); ++i) {
        if (i)
            std::putchar(',');
        printJsonString(messages_[i]);
    }
    std::printf("],\"check_failures\":%llu,\"metrics\":{",
                static_cast<unsigned long long>(checkFailures_));
    bool first = true;
    for (const auto &kv : metrics_) {
        if (!first)
            std::putchar(',');
        first = false;
        printJsonString(kv.first);
        std::printf(":{\"value\":");
        printNumber(kv.second.value);
        std::printf(",\"unit\":");
        printJsonString(kv.second.unit);
        std::printf(",\"n\":%llu}",
                    static_cast<unsigned long long>(kv.second.n));
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            args.workload = v;
        else if (k == "--seed")
            args.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            args.seconds = static_cast<unsigned>(std::atoi(v.c_str()));
        else if (k == "--trace")
            args.trace = v == "1";
        else if (k == "--out-dir")
            args.outDir = v;
        else if (k == "--commit")
            commitId = v;
        else {
            std::fprintf(stderr, "perfbench: unknown argument %s\n",
                         k.c_str());
            return 2;
        }
    }
    if (argc % 2 == 0 || args.seconds < 1 || args.seconds > 60) {
        std::fprintf(stderr, "usage: perfbench --workload W --seed N "
                             "--seconds 1..60 --trace 0|1\n");
        return 2;
    }
    // The benchmark measures the engine's default modes: a knob set
    // in the environment would silently measure something else.
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "ESPRESSO_", 9) == 0) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set\n", *e);
            return 2;
        }
    }

    void (*run)(const Args &, Report &) = nullptr;
    if (args.workload == "wire_ycsb")
        run = runWireYcsb;
    else if (args.workload == "tpcc_xshard")
        run = runTpccXshard;
    else if (args.workload == "heap_gc")
        run = runHeapGc;
    if (!run) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }

    espresso::setWarningsEnabled(false);
    Report report;
    try {
        run(args, report);
    } catch (const std::exception &e) {
        // fatal() throws: an engine panic fails the run, it is never
        // skipped.
        report.check(false, std::string("engine error: ") + e.what());
    }
    report.print(args);
    return report.correct() ? 0 : 1;
}
