/**
 * @file
 * The database workloads' shared deployment inputs and counter
 * readers: the emulated device model, and snapshots of the nvm and
 * group-commit counters summed over every member and the 2PC
 * coordinator's device.
 */

#ifndef ESPRESSO_PERFBENCH_DB_COUNTERS_HH
#define ESPRESSO_PERFBENCH_DB_COUNTERS_HH

#include <algorithm>

#include "db/sharded_database.hh"
#include "harness.hh"

namespace perfbench {

/** Members of the sharded database (both database workloads). */
constexpr unsigned kDbMembers = 4;

/** Device model of the database workloads: a 25 µs persist fence
 * that yields the core while it drains (the repo's database benches
 * use the same model), and free cache-line flushes. */
inline espresso::NvmConfig
dbDeviceModel()
{
    espresso::NvmConfig nvm;
    nvm.fenceLatencyNs = 25000;
    nvm.fenceWaitYields = true;
    return nvm;
}

struct DbCounters
{
    std::uint64_t fences = 0, lines = 0, flushCalls = 0;
    std::uint64_t txns = 0, batches = 0, maxBatch = 0,
                  windowTimeouts = 0;

    static void
    addDevice(DbCounters &c, const espresso::NvmDevice &d)
    {
        c.fences += d.stats().fences.load();
        c.lines += d.stats().linesFlushed.load();
        c.flushCalls += d.stats().flushCalls.load();
    }

    static DbCounters
    read(espresso::db::ShardedDatabase &db)
    {
        DbCounters c;
        addDevice(c, db.coordinatorDevice());
        for (unsigned i = 0; i < db.shardCount(); ++i) {
            addDevice(c, db.shard(i).device());
            espresso::db::CommitCoordinator::Stats s =
                db.shard(i).commitCoordinator().stats();
            c.txns += s.txns;
            c.batches += s.batches;
            c.maxBatch = std::max(c.maxBatch, s.maxBatch);
            c.windowTimeouts += s.windowTimeouts;
        }
        return c;
    }

    /** Counts since @p before (maxBatch stays a high-water mark). */
    DbCounters
    since(const DbCounters &before) const
    {
        DbCounters d = *this;
        d.fences -= before.fences;
        d.lines -= before.lines;
        d.flushCalls -= before.flushCalls;
        d.txns -= before.txns;
        d.batches -= before.batches;
        d.windowTimeouts -= before.windowTimeouts;
        return d;
    }

    DbCounters &
    operator+=(const DbCounters &o)
    {
        fences += o.fences;
        lines += o.lines;
        flushCalls += o.flushCalls;
        txns += o.txns;
        batches += o.batches;
        maxBatch = std::max(maxBatch, o.maxBatch);
        windowTimeouts += o.windowTimeouts;
        return *this;
    }
};

/** Per-layer nvm and commit metrics of the counts @p d, per
 * completed op; @p user_bytes is the payload the ops wrote. */
inline void
reportDbCounters(Report &r, const DbCounters &d, std::uint64_t ops,
                 double user_bytes)
{
    double n = ops ? static_cast<double>(ops) : 1.0;
    r.metric("commit.txns_per_batch",
             d.batches ? static_cast<double>(d.txns) / d.batches : 0,
             "txns/batch", d.batches);
    r.metric("commit.max_batch", static_cast<double>(d.maxBatch), "txns",
             d.batches);
    r.metric("commit.window_timeouts", static_cast<double>(d.windowTimeouts),
             "count", d.batches);
    r.metric("nvm.fences_per_op", d.fences / n, "fences/op", ops);
    r.metric("nvm.lines_per_op", d.lines / n, "lines/op", ops);
    r.metric("nvm.flush_calls_per_op", d.flushCalls / n, "calls/op", ops);
    r.metric("nvm.bytes_per_user_byte",
             user_bytes > 0 ? d.lines * espresso::kCacheLineSize / user_bytes
                            : 0,
             "ratio", ops);
}

} // namespace perfbench

#endif // ESPRESSO_PERFBENCH_DB_COUNTERS_HH
