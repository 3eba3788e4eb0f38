/**
 * @file
 * heap_gc: persistent allocation, collection and recovery, with no
 * database and no network. One mutator thread works on one PJH at
 * its default GC settings. The heap publishes a single root, a
 * PHashmap over kKeys keys. kPutPct of the ops pnew a fresh value
 * object, persist it and put it over a key's old one, which becomes
 * garbage; the rest get a key and verify the value it maps to.
 * The heap collects through its default trigger (the data space is
 * full), many times per run: the live set is about two fifths of
 * the data space.
 *
 * Checks: every get returns the value the mutator put last; after the
 * timed phase (so after the last collection) a checksum over the map
 * matches the mutator's record, and so it does after a simulated
 * power cut and loadHeap.
 *
 * A collection runs inside the pnew that found the heap full, so
 * the benchmark times a pause from outside: a pnew call during
 * which the heap's collection count rose is one mutator-visible
 * stop.
 */

#include <memory>
#include <string>
#include <vector>

#include "collections/phashmap.hh"
#include "core/espresso.hh"
#include "harness.hh"
#include "util/rng.hh"

using namespace espresso;

namespace perfbench {

namespace {

constexpr std::int64_t kKeys = 16384;
/** Data space: live data (map, entries, values) is ~1.6 MiB. */
constexpr std::size_t kDataSize = 4u << 20;
const char *const kHeapName = "heap_gc";
const char *const kValKlass = "perfbench.Val";
/** Share of ops that pnew and put; the rest get. Puts dominate so
 * that the op-latency median falls inside one op class. */
constexpr unsigned kPutPct = 80;
/** Ops generated; the loop cycles through them. */
constexpr std::size_t kOps = 1u << 22;

/** Device model: 50 ns per flushed line, 300 ns per fence, both
 * spinning (the mutator is the only thread). */
EspressoConfig
runtimeConfig()
{
    EspressoConfig cfg;
    cfg.nvm.flushLatencyNs = 50;
    cfg.nvm.fenceLatencyNs = 300;
    return cfg;
}

/** One generated op: key << 1 | is_put. */
using PackedOp = std::uint32_t;

std::vector<PackedOp>
makeInputs(std::uint64_t seed)
{
    Rng rng(seed * 0xD6E8FEB86659FD93ull + 7);
    std::vector<PackedOp> ops(kOps);
    for (PackedOp &op : ops) {
        bool put = rng.nextBelow(100) < kPutPct;
        op = static_cast<PackedOp>(rng.nextBelow(kKeys) << 1 |
                                   (put ? 1 : 0));
    }
    return ops;
}

std::uint64_t
mix(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Payload word of a value object: derived from key and sequence. */
std::int64_t
payload(std::int64_t key, std::int64_t seq)
{
    return static_cast<std::int64_t>(
        mix(static_cast<std::uint64_t>(key) * 1000003u + seq));
}

struct Fixture
{
    std::unique_ptr<EspressoRuntime> rt;
    PjhHeap *heap = nullptr;
    PHashmap map;
    std::uint32_t keyOff = 0, seqOff = 0, padOff = 0;

    /** Re-resolve the map after a collection moved it. */
    void
    refresh()
    {
        map = PHashmap::at(heap, heap->getRoot("map"));
    }

    Oop
    pnewVal(std::int64_t key, std::int64_t seq)
    {
        Oop v = rt->pnewInstance(heap, kValKlass);
        fill(v, key, seq);
        return v;
    }

    void
    fill(Oop v, std::int64_t key, std::int64_t seq)
    {
        v.setI64(keyOff, key);
        v.setI64(seqOff, seq);
        v.setI64(padOff, payload(key, seq));
        heap->flushObject(v);
    }
};

/** Runtime and heap creation, the map, and one value per key. */
void
setUp(Fixture &fx)
{
    fx.rt = std::make_unique<EspressoRuntime>(runtimeConfig());
    fx.rt->define({kValKlass,
                   "",
                   {{"key", FieldType::kI64},
                    {"seq", FieldType::kI64},
                    {"pad", FieldType::kI64}},
                   false});
    fx.keyOff = fx.rt->fieldOffset(kValKlass, "key");
    fx.seqOff = fx.rt->fieldOffset(kValKlass, "seq");
    fx.padOff = fx.rt->fieldOffset(kValKlass, "pad");
    PjhConfig cfg;
    cfg.dataSize = kDataSize;
    fx.heap = fx.rt->heaps().createHeap(kHeapName, cfg);
    PHashmap map = PHashmap::create(fx.heap, kKeys);
    fx.heap->setRoot("map", map.oop());
    fx.refresh();
    std::uint64_t gcs = fx.heap->stats().collections;
    for (std::int64_t k = 0; k < kKeys; ++k) {
        Oop v = fx.pnewVal(k, 0);
        if (fx.heap->stats().collections != gcs) {
            gcs = fx.heap->stats().collections;
            fx.refresh();
        }
        fx.map.put(k, v);
    }
}

/** Checksum over the map, and the number of keys that disagree with
 * @p expected (the mutator's record of each key's last sequence). */
std::uint64_t
checksum(Fixture &fx, const std::vector<std::int64_t> &expected,
         std::uint64_t *wrong)
{
    std::uint64_t sum = 0;
    *wrong = 0;
    for (std::int64_t k = 0; k < kKeys; ++k) {
        Oop v = fx.map.get(k);
        if (v.isNull()) {
            ++*wrong;
            continue;
        }
        std::int64_t seq = v.getI64(fx.seqOff);
        if (v.getI64(fx.keyOff) != k || seq != expected[k] ||
            v.getI64(fx.padOff) != payload(k, seq))
            ++*wrong;
        sum += mix(static_cast<std::uint64_t>(k) ^
                   mix(static_cast<std::uint64_t>(v.getI64(fx.padOff))));
    }
    return sum;
}

std::uint64_t
recordChecksum(const std::vector<std::int64_t> &expected)
{
    std::uint64_t sum = 0;
    for (std::int64_t k = 0; k < kKeys; ++k)
        sum += mix(static_cast<std::uint64_t>(k) ^
                   mix(static_cast<std::uint64_t>(
                       payload(k, expected[k]))));
    return sum;
}

struct GcRun
{
    Latencies all, reads, writes, pauses;
    std::uint64_t ops = 0, mismatches = 0, collections = 0;
    std::uint64_t bytesAllocated = 0;
    double seconds = 0;
    std::uint64_t fences = 0, lines = 0, flushCalls = 0, userBytes = 0;
    std::vector<double> markMs, compactMs, concMarkMs, remarkMs, marked;
    std::vector<std::unique_ptr<Tracer>> tracers;

    double throughput() const { return ops / seconds; }

    /** Pool another round's phase into this one. */
    void
    add(GcRun &&o)
    {
        all.append(o.all);
        reads.append(o.reads);
        writes.append(o.writes);
        pauses.append(o.pauses);
        ops += o.ops;
        mismatches += o.mismatches;
        collections += o.collections;
        bytesAllocated += o.bytesAllocated;
        seconds += o.seconds;
        fences += o.fences;
        lines += o.lines;
        flushCalls += o.flushCalls;
        userBytes += o.userBytes;
        auto cat = [](std::vector<double> &a, const std::vector<double> &b) {
            a.insert(a.end(), b.begin(), b.end());
        };
        cat(markMs, o.markMs);
        cat(compactMs, o.compactMs);
        cat(concMarkMs, o.concMarkMs);
        cat(remarkMs, o.remarkMs);
        cat(marked, o.marked);
        for (auto &t : o.tracers)
            tracers.push_back(std::move(t));
    }
};

/** The timed mutator loop (one thread: this one). */
void
gcPhase(Fixture &fx, const std::vector<PackedOp> &ops, std::size_t *pos,
        std::vector<std::int64_t> &expected, std::int64_t *seq,
        unsigned seconds, bool traced, GcRun &out)
{
    Phase ph = Phase::after(kWarmupNs, seconds);
    out.all = Latencies(seconds);
    out.reads = Latencies(seconds);
    out.writes = Latencies(seconds);
    out.pauses = Latencies(seconds);
    if (traced)
        out.tracers.push_back(
            std::make_unique<Tracer>(0, kKeptSpansPerThread));
    Tracer *tr = traced ? out.tracers.back().get() : nullptr;
    const NvmStats &nvm = fx.heap->device().stats();
    bool counting = false;
    std::uint64_t gcs = fx.heap->stats().collections;
    std::uint64_t f0 = 0, l0 = 0, c0 = 0, b0 = 0;
    std::uint64_t op_id = 0;
    for (;;) {
        std::uint64_t t0 = nowNs();
        if (!counting && t0 >= ph.start) {
            counting = true;
            f0 = nvm.fences.load();
            l0 = nvm.linesFlushed.load();
            c0 = nvm.flushCalls.load();
            b0 = fx.heap->stats().bytesAllocated.load();
        }
        if (t0 >= ph.end)
            break;
        PackedOp op = ops[*pos];
        *pos = (*pos + 1) % ops.size();
        std::int64_t key = op >> 1;
        bool collected = false;
        {
            Span root(tr, Sp::kGcOp, Tracer::kNone, ++op_id);
            if (op & 1) {
                std::int64_t s = ++*seq;
                Oop v;
                {
                    Span pnew(tr, Sp::kPjhPnew, root.handle(), op_id);
                    std::uint64_t a0 = nowNs();
                    v = fx.rt->pnewInstance(fx.heap, kValKlass);
                    std::uint64_t a1 = nowNs();
                    if (fx.heap->stats().collections != gcs) {
                        collected = true;
                        if (tr)
                            tr->record(Sp::kGcCollect, pnew.handle(), op_id,
                                       a0, a1);
                        out.pauses.add(ph.window(a1), a1 - a0);
                    }
                }
                if (collected)
                    fx.refresh();
                fx.fill(v, key, s);
                {
                    Span put(tr, Sp::kPjhMapPut, root.handle(), op_id);
                    fx.map.put(key, v);
                }
                expected[key] = s;
            } else {
                Oop v;
                {
                    Span get(tr, Sp::kPjhMapGet, root.handle(), op_id);
                    v = fx.map.get(key);
                }
                if (v.isNull() || v.getI64(fx.keyOff) != key ||
                    v.getI64(fx.seqOff) != expected[key])
                    ++out.mismatches;
            }
        }
        std::uint64_t t1 = nowNs();
        if (fx.heap->stats().collections != gcs) {
            gcs = fx.heap->stats().collections;
            const PjhStats &st = fx.heap->stats();
            if (counting) {
                ++out.collections;
                out.markMs.push_back(st.lastGcMarkNs / 1e6);
                out.compactMs.push_back(st.lastGcCompactNs / 1e6);
                out.concMarkMs.push_back(st.lastGcConcMarkNs / 1e6);
                out.remarkMs.push_back(st.lastGcRemarkNs / 1e6);
                out.marked.push_back(static_cast<double>(st.lastGcMarked));
            }
            if (!collected)
                fx.refresh();
        }
        int w = ph.window(t1);
        if (w >= 0) {
            ++out.ops;
            out.all.add(w, t1 - t0);
            if (op & 1) {
                out.writes.add(w, t1 - t0);
                out.userBytes += 24;
            } else {
                out.reads.add(w, t1 - t0);
            }
        }
    }
    out.seconds = ph.seconds();
    out.fences = nvm.fences.load() - f0;
    out.lines = nvm.linesFlushed.load() - l0;
    out.flushCalls = nvm.flushCalls.load() - c0;
    out.bytesAllocated = fx.heap->stats().bytesAllocated.load() - b0;
}

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0 : s / v.size();
}

} // namespace

void
runHeapGc(const Args &args, Report &report)
{
    std::vector<PackedOp> ops = makeInputs(args.seed);
    std::size_t pos = 0;
    GcRun run, traced;
    std::vector<double> setup_s, recovery_ms, load_ms, bind_ms, safety_ms;
    std::uint64_t tail_repairs = 0;
    for (int round = 0; round < kRounds; ++round) {
        auto fx = std::make_unique<Fixture>();
        std::uint64_t t0 = nowNs();
        setUp(*fx);
        setup_s.push_back((nowNs() - t0) / 1e9);

        std::vector<std::int64_t> expected(kKeys, 0);
        std::int64_t seq = 0;
        GcRun r;
        gcPhase(*fx, ops, &pos, expected, &seq, roundSeconds(args), false,
                r);
        run.add(std::move(r));
        if (args.trace) {
            GcRun t;
            gcPhase(*fx, ops, &pos, expected, &seq, roundSeconds(args),
                    true, t);
            traced.add(std::move(t));
        }

        // The timed phase stops anywhere in a GC cycle, and attach time
        // grows with the bytes in use, so collect once: every power
        // cut then hits a heap holding just its live set.
        fx->heap->collect(&fx->rt->heap());
        fx->refresh();
        const std::uint64_t want = recordChecksum(expected);
        std::uint64_t wrong = 0;
        std::uint64_t sum = checksum(*fx, expected, &wrong);
        report.check(sum == want && wrong == 0,
                     "map checksum after the last collection differs "
                     "from the mutator's record (" +
                         std::to_string(wrong) + " keys)");
        report.check(fx->map.size() == static_cast<std::uint64_t>(kKeys),
                     "map size differs from the key space");

        for (int rep = 0; rep < kRecoveryReps; ++rep) {
            std::uint64_t c0 = nowNs();
            fx->rt->heaps().crashHeap(kHeapName,
                                      CrashMode::kDiscardUnflushed,
                                      args.seed + rep);
            fx->heap = fx->rt->heaps().loadHeap(kHeapName);
            fx->refresh();
            bool ok = !fx->map.get(0).isNull();
            std::uint64_t c1 = nowNs();
            report.check(ok,
                         "recovery: the reloaded map did not serve a get");
            recovery_ms.push_back((c1 - c0) / 1e6);
            const PjhStats &st = fx->heap->stats();
            load_ms.push_back(st.lastLoadNs / 1e6);
            bind_ms.push_back(st.lastLoadBindNs / 1e6);
            safety_ms.push_back(st.lastLoadSafetyNs / 1e6);
            if (rep == 0) {
                tail_repairs += st.tailRepairs;
                sum = checksum(*fx, expected, &wrong);
                report.check(sum == want && wrong == 0,
                             "after the power cut the map checksum "
                             "differs from the mutator's record (" +
                                 std::to_string(wrong) + " keys)");
            }
        }
    }
    report.attempted = run.ops;
    report.failed = run.mismatches;
    report.check(run.mismatches + traced.mismatches == 0,
                 "a get returned a value other than the last put");

    if (!args.trace) {
        reportEndToEnd(report, run.ops, run.seconds, run.all, run.writes,
                       setup_s);
        return;
    }

    Tracer tr(0, 0);
    std::vector<const Tracer *> tracers;
    for (auto &t : traced.tracers) {
        tr.merge(*t);
        tracers.push_back(t.get());
    }
    report.check(writeTrace(args.outDir + "/trace-heap_gc.csv", tracers),
                 "could not write the trace file");
    printSpanSummary(tr);
    Tracer::Agg pnew = tr.agg(Sp::kPjhPnew);
    std::vector<std::uint32_t> pauses = traced.pauses.all();
    double n = traced.ops ? double(traced.ops) : 1.0;
    report.metric("read_p99_us", run.reads.quantileUs(0.99), "us",
                  run.reads.count());
    report.metric("recovery_ms", median(recovery_ms), "ms",
                  recovery_ms.size());
    report.metric("failed_frac", double(run.mismatches) / std::max<
                      std::uint64_t>(1, run.ops),
                  "ratio", run.ops);
    // pnew self time: a pnew that ran a collection is a gc.collect
    // span, so its self time is ~0 and the allocation path shows
    // alone.
    report.metric("pjh.pnew_us.p50", quantile(pnew.selfs, 0.50) / 1e3,
                  "us", pnew.count);
    report.metric("pjh.pnew_us.p99", quantile(pnew.selfs, 0.99) / 1e3,
                  "us", pnew.count);
    report.metric("pjh.map_put_us", tr.agg(Sp::kPjhMapPut).meanUs(), "us",
                  tr.agg(Sp::kPjhMapPut).count);
    report.metric("pjh.map_get_us", tr.agg(Sp::kPjhMapGet).meanUs(), "us",
                  tr.agg(Sp::kPjhMapGet).count);
    report.metric("pjh.bytes_allocated_per_op", traced.bytesAllocated / n,
                  "B/op", traced.ops);
    report.metric("pjh.load_ms", median(load_ms), "ms", load_ms.size());
    report.metric("pjh.load_bind_ms", median(bind_ms), "ms",
                  bind_ms.size());
    report.metric("pjh.load_safety_ms", median(safety_ms), "ms",
                  safety_ms.size());
    report.metric("pjh.tail_repairs", double(tail_repairs), "count",
                  kRounds);
    report.metric("gc.collections", double(traced.collections), "count",
                  traced.collections);
    report.metric("gc.collect_ms.p50", quantile(pauses, 0.50) / 1e6, "ms",
                  pauses.size());
    report.metric("gc.collect_ms.max", quantile(pauses, 1.0) / 1e6, "ms",
                  pauses.size());
    report.metric("gc.mark_ms", mean(traced.markMs), "ms",
                  traced.markMs.size());
    report.metric("gc.compact_ms", mean(traced.compactMs), "ms",
                  traced.compactMs.size());
    report.metric("gc.conc_mark_ms", mean(traced.concMarkMs), "ms",
                  traced.concMarkMs.size());
    report.metric("gc.remark_ms", mean(traced.remarkMs), "ms",
                  traced.remarkMs.size());
    report.metric("gc.marked", mean(traced.marked), "objects",
                  traced.marked.size());
    report.metric("nvm.fences_per_op", traced.fences / n, "fences/op",
                  traced.ops);
    report.metric("nvm.lines_per_op", traced.lines / n, "lines/op",
                  traced.ops);
    report.metric("nvm.flush_calls_per_op", traced.flushCalls / n,
                  "calls/op", traced.ops);
    report.metric("nvm.bytes_per_user_byte",
                  traced.userBytes ? traced.lines * 64.0 / traced.userBytes
                                   : 0,
                  "ratio", traced.ops);
    report.metric("trace.overhead_frac",
                  1.0 - traced.throughput() / run.throughput(), "ratio",
                  traced.ops);
    report.zeroLayers({"net.", "db.", "commit."});
}

} // namespace perfbench
