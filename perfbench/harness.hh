/**
 * @file
 * Shared harness for the perfbench workloads: the run's arguments,
 * the timed-phase clock, latency samples split into one-second
 * windows, the in-memory span tracer, correctness-check bookkeeping
 * and the result report.
 *
 * Everything here is benchmark-side code: the workloads time the
 * engine from outside, around calls into each layer's public
 * functions, and read the layers' existing counters. No span is
 * recorded inside src/.
 */

#ifndef ESPRESSO_PERFBENCH_HARNESS_HH
#define ESPRESSO_PERFBENCH_HARNESS_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline void
sleepUntilNs(std::uint64_t t)
{
    for (std::uint64_t now = nowNs(); now < t; now = nowNs())
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::min<std::uint64_t>(
                t - now, 5'000'000)));
}

/** Command-line inputs of one run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned seconds = 10;
    bool trace = false;
    /** Where the traced run writes its spans. */
    std::string outDir = ".";
};

/** Median of @p v (0 for an empty set). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Exact quantile @p q of @p v (nearest rank, 0 when empty). */
inline double
quantile(std::vector<std::uint32_t> &v, double q)
{
    if (v.empty())
        return 0;
    std::size_t k = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k),
                     v.end());
    return static_cast<double>(v[k]);
}

/**
 * The timed phase: a warm-up, then @c seconds one-second windows.
 * Ops that complete inside a window are measured; the rest (warm-up
 * and the drain after the deadline) are executed but not counted.
 */
struct Phase
{
    std::uint64_t start = 0; ///< timed phase begins (after warm-up)
    std::uint64_t end = 0;

    static Phase
    after(std::uint64_t warmup_ns, unsigned seconds)
    {
        Phase p;
        p.start = nowNs() + warmup_ns;
        p.end = p.start + std::uint64_t(seconds) * 1'000'000'000ull;
        return p;
    }

    /** Window of a completion at @p t, or -1 outside the phase. */
    int
    window(std::uint64_t t) const
    {
        if (t < start || t >= end)
            return -1;
        return static_cast<int>((t - start) / 1'000'000'000ull);
    }

    double seconds() const { return (end - start) / 1e9; }
};

/** Latencies (ns) of one op class, bucketed by completion window. */
class Latencies
{
  public:
    explicit Latencies(unsigned windows = 0) : w_(windows) {}

    void
    add(int window, std::uint64_t ns)
    {
        if (window < 0)
            return;
        w_[static_cast<std::size_t>(window)].push_back(
            static_cast<std::uint32_t>(
                std::min<std::uint64_t>(ns, 0xffffffffu)));
    }

    /** Add @p o's windows after this one's (a later round). */
    void
    append(const Latencies &o)
    {
        w_.insert(w_.end(), o.w_.begin(), o.w_.end());
    }

    void
    merge(const Latencies &o)
    {
        if (w_.size() < o.w_.size())
            w_.resize(o.w_.size());
        for (std::size_t i = 0; i < o.w_.size(); ++i)
            w_[i].insert(w_[i].end(), o.w_[i].begin(), o.w_[i].end());
    }

    std::uint64_t
    count() const
    {
        std::uint64_t n = 0;
        for (const auto &v : w_)
            n += v.size();
        return n;
    }

    /** Median over windows of each window's @p q quantile, in µs:
     * one stalled second moves it by at most one rank. */
    double
    quantileUs(double q)
    {
        std::vector<double> per;
        for (auto &v : w_)
            if (!v.empty())
                per.push_back(quantile(v, q) / 1e3);
        return median(per);
    }

    std::vector<std::uint32_t>
    all() const
    {
        std::vector<std::uint32_t> out;
        for (const auto &v : w_)
            out.insert(out.end(), v.begin(), v.end());
        return out;
    }

  private:
    std::vector<std::vector<std::uint32_t>> w_;
};

/** Span names: one per layer boundary the workloads time. */
enum class Sp : std::uint8_t
{
    kYcsbOp,    ///< one wire op, send -> response (root)
    kNetSend,   ///< WireClient::sendFrames
    kNetRecv,   ///< WireClient::recvFrame
    kDirectOp,  ///< one op of the direct ShardedDatabase replay (root)
    kDbGet,     ///< ShardedDatabase::fetchRecord
    kDbPut,     ///< ShardedDatabase::persistRecord / updateRecord
    kTpccTxn,   ///< one transaction attempt (root)
    kDbTxnBody, ///< beginTxn .. last statement
    kDbCommit,  ///< Txn::commit
    kGcOp,      ///< one mutator op (root)
    kPjhPnew,   ///< EspressoRuntime::pnewInstance
    kPjhMapPut, ///< PHashmap::put
    kPjhMapGet, ///< PHashmap::get
    kGcCollect, ///< a pnew call that ran a collection
    kCount
};

inline const char *
spanName(Sp s)
{
    static const char *const names[] = {
        "ycsb.op",    "net.send",   "net.recv",    "direct.op",
        "db.get",     "db.put",     "tpcc.txn",    "db.txn_body",
        "db.commit",  "gc.op",      "pjh.pnew",    "pjh.map_put",
        "pjh.map_get", "gc.collect"};
    return names[static_cast<std::size_t>(s)];
}

/**
 * One thread's span recorder. Spans live in memory: open spans in a
 * slot table (a child adds its duration to its open parent, so self
 * time = duration - time covered by children), closed spans folded
 * into per-name aggregates, and the first @c keep closed spans kept
 * verbatim for the trace file written at the end of the run.
 * A null Tracer* means tracing is off; the workloads test for it.
 */
class Tracer
{
  public:
    static constexpr std::uint32_t kNone = ~0u;

    struct Agg
    {
        std::uint64_t count = 0;
        std::uint64_t durNs = 0;
        std::uint64_t selfNs = 0;
        std::vector<std::uint32_t> durs;
        std::vector<std::uint32_t> selfs;

        double meanUs() const { return count ? durNs / 1e3 / count : 0; }
    };

    struct Record
    {
        std::uint64_t seq, parentSeq, op, start, end;
        Sp name;
    };

    Tracer(unsigned thread, std::size_t keep)
        : thread_(thread), keep_(keep)
    {}

    /** Open a span; @p parent is an open span's handle or kNone. */
    std::uint32_t
    begin(Sp name, std::uint32_t parent, std::uint64_t op)
    {
        return open(name, parent, op, nowNs());
    }

    void end(std::uint32_t h) { close(h, nowNs()); }

    /** A span whose bounds were taken by the caller. */
    void
    record(Sp name, std::uint32_t parent, std::uint64_t op,
           std::uint64_t start, std::uint64_t end)
    {
        close(open(name, parent, op, start), end);
    }

    const Agg &agg(Sp s) const { return aggs_[static_cast<int>(s)]; }

    void
    merge(const Tracer &o)
    {
        for (int i = 0; i < static_cast<int>(Sp::kCount); ++i) {
            Agg &a = aggs_[i];
            const Agg &b = o.aggs_[i];
            a.count += b.count;
            a.durNs += b.durNs;
            a.selfNs += b.selfNs;
            a.durs.insert(a.durs.end(), b.durs.begin(), b.durs.end());
            a.selfs.insert(a.selfs.end(), b.selfs.begin(),
                           b.selfs.end());
        }
    }

    std::uint64_t
    firstStart() const
    {
        std::uint64_t t = ~0ull;
        for (const Record &r : kept_)
            t = std::min(t, r.start);
        return t;
    }

    /** Append the kept spans as CSV rows (times relative to
     * @p epoch). */
    void
    write(std::FILE *f, std::uint64_t epoch) const
    {
        for (const Record &r : kept_)
            std::fprintf(f, "%u,%llu,%lld,%s,%llu,%llu,%llu\n", thread_,
                         static_cast<unsigned long long>(r.seq),
                         r.parentSeq == ~0ull
                             ? -1ll
                             : static_cast<long long>(r.parentSeq),
                         spanName(r.name),
                         static_cast<unsigned long long>(r.op),
                         static_cast<unsigned long long>(r.start - epoch),
                         static_cast<unsigned long long>(r.end - epoch));
    }

  private:
    struct Open
    {
        Sp name;
        std::uint32_t parent;
        std::uint64_t op, start, childNs, seq;
    };

    std::uint32_t
    open(Sp name, std::uint32_t parent, std::uint64_t op,
         std::uint64_t start)
    {
        std::uint32_t h;
        if (!free_.empty()) {
            h = free_.back();
            free_.pop_back();
        } else {
            h = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
        }
        slots_[h] = Open{name, parent, op, start, 0, nextSeq_++};
        return h;
    }

    void
    close(std::uint32_t h, std::uint64_t end)
    {
        Open &s = slots_[h];
        std::uint64_t dur = end > s.start ? end - s.start : 0;
        std::uint64_t self = dur > s.childNs ? dur - s.childNs : 0;
        Agg &a = aggs_[static_cast<int>(s.name)];
        ++a.count;
        a.durNs += dur;
        a.selfNs += self;
        a.durs.push_back(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(dur, 0xffffffffu)));
        a.selfs.push_back(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(self, 0xffffffffu)));
        std::uint64_t parent_seq = ~0ull;
        if (s.parent != kNone) {
            slots_[s.parent].childNs += dur;
            parent_seq = slots_[s.parent].seq;
        }
        if (kept_.size() < keep_)
            kept_.push_back(
                Record{s.seq, parent_seq, s.op, s.start, end, s.name});
        free_.push_back(h);
    }

    unsigned thread_;
    std::size_t keep_;
    std::uint64_t nextSeq_ = 0;
    std::vector<Open> slots_;
    std::vector<std::uint32_t> free_;
    Agg aggs_[static_cast<int>(Sp::kCount)];
    std::vector<Record> kept_;
};

/** A scoped span: open while in scope (exceptions included), and
 * nothing at all when @p tr is null (tracing off). */
class Span
{
  public:
    Span(Tracer *tr, Sp name, std::uint32_t parent, std::uint64_t op)
        : tr_(tr), h_(tr ? tr->begin(name, parent, op) : Tracer::kNone)
    {}
    ~Span()
    {
        if (tr_)
            tr_->end(h_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint32_t handle() const { return h_; }

  private:
    Tracer *tr_;
    std::uint32_t h_;
};

/** Print each span name's count, mean duration and mean self time
 * (duration minus the time its child spans cover). */
inline void
printSpanSummary(const Tracer &t)
{
    for (int i = 0; i < static_cast<int>(Sp::kCount); ++i) {
        const Tracer::Agg &a = t.agg(static_cast<Sp>(i));
        if (a.count)
            std::printf("span %-12s count %10llu mean %10.3f us self "
                        "%10.3f us\n",
                        spanName(static_cast<Sp>(i)),
                        static_cast<unsigned long long>(a.count),
                        a.meanUs(), a.selfNs / 1e3 / a.count);
    }
}

/** Spans kept verbatim per thread for the trace file. */
constexpr std::size_t kKeptSpansPerThread = 20000;

/** Write every tracer's kept spans to @p path; times are relative
 * to the earliest kept span. */
inline bool
writeTrace(const std::string &path,
           const std::vector<const Tracer *> &tracers)
{
    std::uint64_t epoch = ~0ull;
    for (const Tracer *t : tracers)
        epoch = std::min(epoch, t->firstStart());
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "thread,seq,parent_seq,name,op,start_ns,end_ns\n");
    for (const Tracer *t : tracers)
        t->write(f, epoch);
    return std::fclose(f) == 0;
}

/**
 * The run's outcome: metrics by name (value, unit, sample count),
 * op accounting, and the correctness/durability verdict. A failed
 * check is recorded with its message; the run then exits non-zero.
 */
class Report
{
  public:
    struct Metric
    {
        double value;
        std::string unit;
        std::uint64_t n;
    };

    void
    metric(const std::string &name, double value, const std::string &unit,
           std::uint64_t n)
    {
        metrics_[name] = Metric{value, unit, n};
    }

    /** Record a check; false records a failure. */
    bool
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            ++checkFailures_;
            if (messages_.size() < 20)
                messages_.push_back(what);
        }
        return ok;
    }

    bool correct() const { return checkFailures_ == 0; }

    /** Report 0 for every per-layer metric whose name starts with one
     * of @p prefixes: the layer does no work on this workload. */
    void zeroLayers(const std::vector<std::string> &prefixes);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Print the result as one JSON line prefixed "PERFBENCH_RESULT ". */
    void print(const Args &args) const;

  private:
    std::map<std::string, Metric> metrics_;
    std::uint64_t checkFailures_ = 0;
    std::vector<std::string> messages_;
};

/** Every per-layer metric, with its unit (BENCHMARK.json lists the
 * same set; run.py checks that they match). */
struct LayerMetric
{
    const char *name;
    const char *unit;
};
extern const std::vector<LayerMetric> kLayerMetrics;

/** The end-to-end metrics of an untraced run: @p ops completed in
 * @p seconds of timed phases, their latencies (all, writes), and the
 * set-up times of every round. */
inline void
reportEndToEnd(Report &r, std::uint64_t ops, double seconds,
               Latencies &all, Latencies &writes,
               const std::vector<double> &setup_s)
{
    r.metric("setup_s", median(setup_s), "s", setup_s.size());
    r.metric("throughput_ops_s", seconds > 0 ? ops / seconds : 0, "ops/s",
             ops);
    r.metric("p50_us", all.quantileUs(0.50), "us", all.count());
    r.metric("p99_us", all.quantileUs(0.99), "us", all.count());
    r.metric("write_p99_us", writes.quantileUs(0.99), "us",
             writes.count());
}

/** @name Workloads (each fills @p report) */
/// @{
void runWireYcsb(const Args &args, Report &report);
void runTpccXshard(const Args &args, Report &report);
void runHeapGc(const Args &args, Report &report);
/// @}

/** Client threads/connections the load generator may use. */
inline unsigned
clientThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, std::min(4u, hw ? hw : 1u));
}

/**
 * A run is kRounds rounds, each on a fresh fixture: set-up, a warm-up,
 * the timed phase (its share of --seconds), the correctness checks and
 * kRecoveryReps simulated power cuts. Latency windows, set-up times
 * and recovery times are pooled over the rounds and their medians
 * reported, so no single fixture's memory placement decides a run.
 */
constexpr int kRounds = 5;
constexpr int kRecoveryReps = 11;

/** Seconds of one round's timed phase; the traced run splits them
 * between an untraced and a traced phase. */
inline unsigned
roundSeconds(const Args &a)
{
    return std::max(1u, a.seconds / kRounds / (a.trace ? 2 : 1));
}

/** Warm-up before each timed phase. */
constexpr std::uint64_t kWarmupNs = 1'000'000'000ull;

} // namespace perfbench

#endif // ESPRESSO_PERFBENCH_HARNESS_HH
