/**
 * @file
 * wire_ycsb: the client-facing path. A closed loop over loopback TCP:
 * one client thread per connection keeps kDepth ops pipelined
 * against the epoll Server in front of a kDbMembers-member
 * ShardedDatabase. Half the ops are kGet of a uniform key, half are
 * kPut of a uniform key from the connection's own slice (key %
 * connections == connection), so the final value of every key is
 * known and every kGet of an owned key has one right answer.
 *
 * Checks: an owned-key kGet returns the value of the last kPut this
 * connection had acknowledged before it (responses arrive in
 * execution order); after the timed phase every key holds its last
 * acknowledged value, before and after a simulated power cut.
 *
 * The traced run adds a direct replay of the same op sequences
 * through ShardedDatabase (no server, no sockets): its timed
 * fetchRecord / persistRecord calls give db.get_us / db.put_us, and
 * their medians are the baseline net.overhead_us is measured
 * against.
 */

#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db_counters.hh"
#include "harness.hh"
#include "net/server.hh"
#include "net/wire_client.hh"
#include "util/rng.hh"

using namespace espresso;
using namespace espresso::db;
using namespace espresso::net;

namespace perfbench {

namespace {

constexpr std::int64_t kKeys = 16384;
constexpr unsigned kDepth = 8;
/** Ops generated per connection; the loop cycles through them. */
constexpr std::size_t kOpsPerConn = 1u << 20;
const char *const kTable = "usertable";

ShardedDatabaseConfig
dbConfig()
{
    ShardedDatabaseConfig cfg;
    cfg.shards = kDbMembers;
    // Sized to the key space: a power cut copies the whole device
    // image, and that copy should not dominate recovery_ms.
    cfg.shard.rowRegionSize = 2u << 20;
    cfg.shard.rowsPerTable = 8192;
    cfg.shard.walSize = 1u << 20;
    return cfg;
}

/** One generated op: key << 1 | is_put. */
using PackedOp = std::uint32_t;

struct Inputs
{
    unsigned conns = 0;
    std::vector<std::int64_t> initial;         ///< per key
    std::vector<std::vector<PackedOp>> ops;    ///< per connection
};

Inputs
makeInputs(std::uint64_t seed, unsigned conns)
{
    Inputs in;
    in.conns = conns;
    Rng rng(seed ^ 0x5943534255ull);
    for (std::int64_t k = 0; k < kKeys; ++k)
        in.initial.push_back(static_cast<std::int64_t>(rng.next() >> 20));
    const std::uint64_t slice = static_cast<std::uint64_t>(kKeys) / conns;
    for (unsigned c = 0; c < conns; ++c) {
        Rng r(seed * 0x9E3779B97F4A7C15ull + c + 1);
        std::vector<PackedOp> ops(kOpsPerConn);
        for (PackedOp &op : ops) {
            bool put = r.nextBool();
            std::uint64_t key = put ? r.nextBelow(slice) * conns + c
                                    : r.nextBelow(kKeys);
            op = static_cast<PackedOp>(key << 1 | (put ? 1 : 0));
        }
        in.ops.push_back(std::move(ops));
    }
    return in;
}

DbRecord
row(std::int64_t key, std::int64_t value)
{
    DbRecord r;
    r.values = {DbValue::ofI64(key), DbValue::ofI64(value)};
    return r;
}

/** Value a connection writes: unique per (connection, op index). */
std::int64_t
putValue(unsigned conn, std::uint64_t n)
{
    return static_cast<std::int64_t>((std::uint64_t(conn + 1) << 48) | n);
}

struct Fixture
{
    std::unique_ptr<ShardedDatabase> db;
    std::unique_ptr<Server> server;
    std::vector<std::unique_ptr<WireClient>> clients;

    ~Fixture() { stopServer(); }

    void
    stopServer()
    {
        clients.clear();
        if (server)
            server->stop();
        server.reset();
    }

    bool
    startServerAndConnect(unsigned conns)
    {
        server = std::make_unique<Server>(db.get());
        server->start();
        for (unsigned c = 0; c < conns; ++c) {
            clients.push_back(std::make_unique<WireClient>());
            if (!clients.back()->connect("127.0.0.1", server->port()))
                return false;
        }
        return true;
    }
};

/** Fixture creation, table creation, preload, server start and
 * connects: the set-up a deployment pays before serving. */
bool
setUp(Fixture &fx, const Inputs &in)
{
    fx.db = std::make_unique<ShardedDatabase>(dbConfig(), dbDeviceModel());
    fx.db->createTable(TableSchema{
        kTable, {{"ID", DbType::kI64}, {"V", DbType::kI64}}, 0,
        TableSchema::kNoIndex});
    std::vector<std::thread> loaders;
    for (unsigned t = 0; t < in.conns; ++t)
        loaders.emplace_back([&, t]() {
            for (std::int64_t k = t; k < kKeys; k += in.conns)
                fx.db->persistRecord(kTable, row(k, in.initial[k]));
        });
    for (auto &t : loaders)
        t.join();
    return fx.startServerAndConnect(in.conns);
}

/** One connection's closed loop and what it saw. */
struct Conn
{
    unsigned id = 0;
    const std::vector<PackedOp> *ops = nullptr;
    std::size_t pos = 0;       ///< next op in *ops
    std::uint64_t putSeq = 0;  ///< values written so far
    /** Last acknowledged value of each key; only the connection's
     * own keys change. */
    std::vector<std::int64_t> acked;

    Latencies all, reads, writes;
    std::uint64_t attempts = 0, ok = 0, errors = 0, mismatches = 0;
    std::unique_ptr<Tracer> tracer;
};

struct Pending
{
    std::uint32_t key;
    bool put;
    std::int64_t value;
    std::uint64_t sentNs;
    std::uint32_t span;
};

/** Run connection @p c's pipeline until @p stop, then drain it. */
void
runConn(WireClient &client, Conn &c, unsigned conns, const Phase &ph,
        const std::atomic<bool> &stop)
{
    Tracer *tr = c.tracer.get();
    std::deque<Pending> inflight;
    std::deque<Pending> retry; // refused ops, resent as new attempts
    std::uint64_t op_id = std::uint64_t(c.id) << 40;
    for (;;) {
        if (!stop.load(std::memory_order_relaxed) &&
            inflight.size() < kDepth) {
            WireWriter w;
            std::size_t first = inflight.size();
            while (inflight.size() < kDepth) {
                Pending p;
                if (!retry.empty()) {
                    p = retry.front();
                    retry.pop_front();
                } else {
                    PackedOp op = (*c.ops)[c.pos];
                    c.pos = (c.pos + 1) % c.ops->size();
                    p.key = op >> 1;
                    p.put = op & 1;
                    p.value = p.put ? putValue(c.id, ++c.putSeq) : 0;
                }
                if (p.put)
                    encodePut(w, kTable, row(p.key, p.value).values);
                else
                    encodeGet(w, kTable, p.key);
                p.sentNs = nowNs();
                p.span = tr ? tr->begin(Sp::kYcsbOp, Tracer::kNone,
                                        ++op_id)
                            : Tracer::kNone;
                inflight.push_back(p);
            }
            bool sent;
            {
                Span s(tr, Sp::kNetSend, inflight[first].span, op_id);
                sent = client.sendFrames(w);
            }
            if (!sent) {
                ++c.errors;
                return;
            }
        }
        if (inflight.empty())
            return;
        Pending p = inflight.front();
        inflight.pop_front();
        std::vector<std::uint8_t> frame;
        FrameView f;
        bool got;
        {
            Span s(tr, Sp::kNetRecv, p.span, op_id);
            got = client.recvFrame(&frame, &f);
        }
        std::uint64_t done = nowNs();
        if (tr)
            tr->end(p.span);
        if (!got) {
            ++c.errors;
            return;
        }
        int w = ph.window(done);
        if (w >= 0)
            ++c.attempts;
        WireStatus st = static_cast<WireStatus>(f.status);
        if (st == WireStatus::kBusy || st == WireStatus::kWalFull ||
            st == WireStatus::kDeadlock || st == WireStatus::kConflict) {
            retry.push_back(p);
            continue;
        }
        if (st != WireStatus::kOk) {
            ++c.errors;
            continue;
        }
        if (p.put) {
            c.acked[p.key] = p.value;
        } else {
            WireReader r(f);
            std::vector<DbValue> got_row = r.getRow();
            bool owned = p.key % conns == c.id;
            if (!r.ok() || got_row.size() != 2 ||
                (owned && got_row[1].i != c.acked[p.key]))
                ++c.mismatches;
        }
        if (w >= 0) {
            ++c.ok;
            std::uint64_t lat = done - p.sentNs;
            c.all.add(w, lat);
            (p.put ? c.writes : c.reads).add(w, lat);
        }
    }
}

/** What the timed phases measured, pooled over rounds. */
struct WireRun
{
    Latencies all, reads, writes;
    std::uint64_t attempts = 0, ok = 0, errors = 0, mismatches = 0;
    double seconds = 0;
    DbCounters db; ///< counts inside the timed windows
    std::uint64_t frames = 0, admissionRejects = 0, protocolErrors = 0,
                  txnsAborted = 0;
    std::vector<std::unique_ptr<Tracer>> tracers;

    double throughput() const { return seconds > 0 ? ok / seconds : 0; }
};

/** One timed phase over the wire, added to @p out. */
void
wirePhase(Fixture &fx, std::vector<std::unique_ptr<Conn>> &conns,
          unsigned seconds, bool traced, WireRun &out)
{
    Phase ph = Phase::after(kWarmupNs, seconds);
    std::atomic<bool> stop{false};
    for (auto &c : conns) {
        c->all = Latencies(seconds);
        c->reads = Latencies(seconds);
        c->writes = Latencies(seconds);
        c->attempts = c->ok = c->errors = c->mismatches = 0;
        c->tracer = traced ? std::make_unique<Tracer>(
                                 c->id, kKeptSpansPerThread)
                           : nullptr;
    }
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < conns.size(); ++i)
        threads.emplace_back([&, i]() {
            runConn(*fx.clients[i], *conns[i],
                    static_cast<unsigned>(conns.size()), ph, stop);
        });
    sleepUntilNs(ph.start);
    DbCounters db0 = DbCounters::read(*fx.db);
    ServerStats s0 = fx.server->stats();
    sleepUntilNs(ph.end);
    out.db += DbCounters::read(*fx.db).since(db0);
    ServerStats s1 = fx.server->stats();
    stop.store(true);
    for (auto &t : threads)
        t.join();

    out.seconds += ph.seconds();
    out.frames += s1.frames - s0.frames;
    out.admissionRejects += s1.admissionRejects - s0.admissionRejects;
    out.protocolErrors += s1.protocolErrors - s0.protocolErrors;
    out.txnsAborted += s1.txnsAborted - s0.txnsAborted;
    Latencies all(seconds), reads(seconds), writes(seconds);
    for (auto &c : conns) {
        all.merge(c->all);
        reads.merge(c->reads);
        writes.merge(c->writes);
        out.attempts += c->attempts;
        out.ok += c->ok;
        out.errors += c->errors;
        out.mismatches += c->mismatches;
        if (c->tracer)
            out.tracers.push_back(std::move(c->tracer));
    }
    out.all.append(all);
    out.reads.append(reads);
    out.writes.append(writes);
}

/** Direct replay of the same op sequences through ShardedDatabase,
 * one thread per connection; it writes the connection's own keys
 * only, so the acknowledged-value record stays exact. */
struct DirectRun
{
    std::vector<std::unique_ptr<Tracer>> tracers;
    std::uint64_t mismatches = 0;
};

void
directPhase(ShardedDatabase &db, std::vector<std::unique_ptr<Conn>> &cs,
            unsigned seconds, DirectRun &out)
{
    const unsigned conns = static_cast<unsigned>(cs.size());
    std::uint64_t end = nowNs() + seconds * 1'000'000'000ull;
    std::atomic<bool> stop{false};
    std::vector<std::uint64_t> bad(conns, 0);
    const std::size_t first = out.tracers.size();
    for (unsigned c = 0; c < conns; ++c)
        out.tracers.push_back(
            std::make_unique<Tracer>(conns + c, kKeptSpansPerThread));
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < conns; ++c)
        threads.emplace_back([&, c]() {
            Tracer &tr = *out.tracers[first + c];
            Conn &conn = *cs[c];
            const std::vector<PackedOp> &ops = *conn.ops;
            std::uint64_t op_id = std::uint64_t(conns + c) << 40;
            for (std::size_t i = 0; !stop.load(std::memory_order_relaxed);
                 i = (i + 1) % ops.size()) {
                std::int64_t key = ops[i] >> 1;
                bool put = ops[i] & 1;
                Span root(&tr, Sp::kDirectOp, Tracer::kNone, ++op_id);
                if (put) {
                    std::int64_t v = putValue(c, ++conn.putSeq);
                    DbRecord r = row(key, v);
                    {
                        Span s(&tr, Sp::kDbPut, root.handle(), op_id);
                        db.persistRecord(kTable, r);
                    }
                    conn.acked[key] = v;
                } else {
                    DbRecord r;
                    bool found;
                    {
                        Span s(&tr, Sp::kDbGet, root.handle(), op_id);
                        found = db.fetchRecord(kTable, key, &r);
                    }
                    if (!found || (key % conns == c &&
                                   r.values[1].i != conn.acked[key]))
                        ++bad[c];
                }
            }
        });
    sleepUntilNs(end);
    stop.store(true);
    for (auto &t : threads)
        t.join();
    for (unsigned c = 0; c < conns; ++c)
        out.mismatches += bad[c];
}

/** Every key holds its last acknowledged value (or its preloaded
 * one). */
void
checkFinalState(ShardedDatabase &db, const Inputs &in,
                const std::vector<std::unique_ptr<Conn>> &conns,
                Report &report, const std::string &when)
{
    std::uint64_t wrong = 0;
    std::int64_t first = -1;
    for (std::int64_t k = 0; k < kKeys; ++k) {
        std::int64_t want = conns[k % in.conns]->acked[k];
        DbRecord r;
        if (!db.fetchRecord(kTable, k, &r) || r.values.size() != 2 ||
            r.values[1].i != want) {
            if (wrong++ == 0)
                first = k;
        }
    }
    report.check(wrong == 0, when + ": " + std::to_string(wrong) +
                                 " keys differ from their last "
                                 "acknowledged value (first key " +
                                 std::to_string(first) + ")");
    report.check(db.rowCount(kTable) == static_cast<std::size_t>(kKeys),
                 when + ": row count differs from the key space");
}

} // namespace

void
runWireYcsb(const Args &args, Report &report)
{
    const unsigned conns = clientThreads();
    Inputs in = makeInputs(args.seed, conns);
    std::vector<std::unique_ptr<Conn>> cs;
    for (unsigned c = 0; c < conns; ++c) {
        auto conn = std::make_unique<Conn>();
        conn->id = c;
        conn->ops = &in.ops[c];
        cs.push_back(std::move(conn));
    }

    WireRun run, traced;
    DirectRun direct;
    std::vector<double> setup_s, recovery_ms, crash_ms;
    for (int round = 0; round < kRounds; ++round) {
        Fixture fx;
        for (auto &c : cs)
            c->acked = in.initial;
        std::uint64_t t0 = nowNs();
        bool ok = setUp(fx, in);
        setup_s.push_back((nowNs() - t0) / 1e9);
        if (!report.check(ok, "set-up: a client could not connect"))
            return;

        wirePhase(fx, cs, roundSeconds(args), false, run);
        if (args.trace)
            wirePhase(fx, cs, roundSeconds(args), true, traced);
        fx.stopServer();
        if (args.trace)
            directPhase(*fx.db, cs, roundSeconds(args), direct);

        // Durability: check, cut power, recover, serve, check.
        checkFinalState(*fx.db, in, cs, report, "before the power cut");
        for (int rep = 0; rep < kRecoveryReps; ++rep) {
            fx.stopServer();
            std::uint64_t c0 = nowNs();
            fx.db->crash(CrashMode::kDiscardUnflushed, args.seed + rep);
            std::uint64_t c1 = nowNs();
            bool served = fx.startServerAndConnect(1);
            std::vector<DbValue> got;
            served = served && fx.clients[0]->get(kTable, 0, &got) ==
                                   WireStatus::kOk;
            std::uint64_t c2 = nowNs();
            report.check(served,
                         "recovery: the restarted server did not serve");
            recovery_ms.push_back((c2 - c0) / 1e6);
            crash_ms.push_back((c1 - c0) / 1e6);
            if (rep == 0) {
                fx.stopServer();
                checkFinalState(*fx.db, in, cs, report,
                                "after the power cut");
            }
        }
    }

    std::uint64_t mismatches =
        run.mismatches + traced.mismatches + direct.mismatches;
    report.check(mismatches == 0,
                 "kGet of an owned key returned a value other than the "
                 "last acknowledged kPut (" +
                     std::to_string(mismatches) + " times)");
    report.check(run.errors + traced.errors == 0,
                 "wire ops failed with an error status or a dropped "
                 "connection");
    report.attempted = run.ok + run.errors;
    report.failed = run.errors + run.mismatches;

    if (!args.trace) {
        reportEndToEnd(report, run.ok, run.seconds, run.all, run.writes,
                       setup_s);
        return;
    }

    // Per-layer metrics of the traced phases.
    Tracer merged(0, 0), direct_merged(0, 0);
    std::vector<const Tracer *> tracers;
    for (auto &t : traced.tracers) {
        merged.merge(*t);
        tracers.push_back(t.get());
    }
    for (auto &t : direct.tracers) {
        direct_merged.merge(*t);
        tracers.push_back(t.get());
    }
    printSpanSummary(merged);
    printSpanSummary(direct_merged);
    report.check(writeTrace(args.outDir + "/trace-wire_ycsb.csv",
                            tracers),
                 "could not write the trace file");

    double n = traced.ok ? double(traced.ok) : 1.0;
    report.metric("read_p99_us", run.reads.quantileUs(0.99), "us",
                  run.reads.count());
    report.metric("recovery_ms", median(recovery_ms), "ms",
                  recovery_ms.size());
    report.metric("failed_frac",
                  run.attempts ? double(run.attempts - run.ok) /
                                     run.attempts
                               : 0,
                  "ratio", run.attempts);
    report.metric("net.frames_per_op", traced.frames / n, "frames/op",
                  traced.ok);
    report.metric("net.admission_rejects_per_kop",
                  1000.0 * traced.admissionRejects / n, "count/kop",
                  traced.ok);
    report.metric("net.protocol_errors", double(traced.protocolErrors),
                  "count", traced.ok);
    report.metric("net.client_send_us",
                  merged.agg(Sp::kNetSend).meanUs(), "us",
                  merged.agg(Sp::kNetSend).count);
    Tracer::Agg get = direct_merged.agg(Sp::kDbGet);
    Tracer::Agg put = direct_merged.agg(Sp::kDbPut);
    // Half the ops are gets and half puts, and the two classes' costs
    // differ by ~50x, so a p50 over both lands on whichever side of
    // the gap it happens to fall. Compare each class's median with its
    // direct-path median instead, and weight by the mix.
    double get_p50 = quantile(get.durs, 0.50) / 1e3;
    double put_p50 = quantile(put.durs, 0.50) / 1e3;
    double overhead = 0.5 * (run.reads.quantileUs(0.50) - get_p50) +
                      0.5 * (run.writes.quantileUs(0.50) - put_p50);
    report.metric("net.overhead_us", overhead, "us",
                  get.count + put.count);
    std::printf("net.overhead_us %.3f + mix-weighted db p50 %.3f = %.3f "
                "us vs wire p50_us %.3f us\n",
                overhead, 0.5 * (get_p50 + put_p50),
                overhead + 0.5 * (get_p50 + put_p50),
                run.all.quantileUs(0.50));
    report.metric("db.get_us.p50", get_p50, "us", get.count);
    report.metric("db.get_us.p99", quantile(get.durs, 0.99) / 1e3, "us",
                  get.count);
    report.metric("db.put_us.p50", put_p50, "us", put.count);
    report.metric("db.put_us.p99", quantile(put.durs, 0.99) / 1e3, "us",
                  put.count);
    report.metric("db.abort_frac",
                  double(traced.txnsAborted) /
                      std::max<std::uint64_t>(1, traced.attempts),
                  "ratio", traced.attempts);
    report.metric("db.recover_ms", median(crash_ms), "ms",
                  crash_ms.size());
    // A put writes two 8-byte columns.
    reportDbCounters(report, traced.db, traced.ok,
                     traced.writes.count() * 16.0);
    report.metric("trace.overhead_frac",
                  1.0 - traced.throughput() / run.throughput(), "ratio",
                  traced.ok);
    report.zeroLayers({"db.txn_body_us", "db.commit_us", "db.xshard_frac",
                       "pjh.", "gc."});
}

} // namespace perfbench
