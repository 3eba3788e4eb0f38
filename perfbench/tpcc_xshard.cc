/**
 * @file
 * tpcc_xshard: multi-row transactions across members. In-process
 * client threads run a TPC-C-lite NewOrder/Payment 50/50 mix as
 * explicit Txns over a kDbMembers-member ShardedDatabase. Sizes
 * follow bench/tpcc_lite.cc (2 warehouses x 4 districts, 30
 * customers per district, 256 items, 5-10 order lines, 1% remote
 * stock lines). Table pks route independently, so most transactions
 * write rows on several members and commit through 2PC.
 *
 * Read-modify-writes take the row's owner latch before reading it
 * (a masked update of no column, the record path's SELECT FOR
 * UPDATE), so concurrent transactions never lose an update and the
 * engine's latches, deadlock detection and 2PC do the isolation
 * work. An aborted attempt is retried as a new attempt.
 *
 * Orders are kept in a ring of kOrderSlots per district (an order
 * overwrites the slot of the order kOrderSlots before it), so the
 * tables stay bounded however long a run is.
 *
 * Checks, before and after a simulated power cut: every district's
 * NEXT_O_ID - 1 equals the NewOrders the clients saw commit, and the
 * newest orders and their lines are present; every warehouse's YTD
 * equals the sum of its districts' YTD and of the acknowledged
 * payments; every customer's balance is minus its acknowledged
 * payments.
 */

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "db_counters.hh"
#include "harness.hh"
#include "util/rng.hh"

using namespace espresso;
using namespace espresso::db;

namespace perfbench {

namespace {

constexpr std::int64_t kWarehouses = 2;
constexpr std::int64_t kDistrictsPerW = 4;
constexpr std::int64_t kDistricts = kWarehouses * kDistrictsPerW;
constexpr std::int64_t kCustomersPerD = 30;
constexpr std::int64_t kItems = 256;
constexpr unsigned kRemotePct = 1;
constexpr std::int64_t kOrderSlots = 64;
constexpr int kMaxLines = 10;
/** Transactions generated per thread; the loop cycles through
 * them. */
constexpr std::size_t kTxnsPerThread = 1u << 16;

ShardedDatabaseConfig
dbConfig()
{
    ShardedDatabaseConfig cfg;
    cfg.shards = kDbMembers;
    // Sized to the tables (order rings included): a power cut copies
    // the whole device image, and that copy should not dominate
    // recovery_ms.
    cfg.shard.rowRegionSize = 8u << 20;
    cfg.shard.rowsPerTable = 4096;
    cfg.shard.walSize = 1u << 20;
    return cfg;
}

std::int64_t districtPk(std::int64_t w, std::int64_t d)
{
    return w * 100 + d;
}
std::int64_t customerPk(std::int64_t w, std::int64_t d, std::int64_t c)
{
    return districtPk(w, d) * 1000 + c;
}
std::int64_t stockPk(std::int64_t w, std::int64_t i)
{
    return w * 100000 + i;
}
std::int64_t orderPk(std::int64_t dpk, std::int64_t o_id)
{
    return dpk * kOrderSlots + o_id % kOrderSlots;
}
std::int64_t orderLinePk(std::int64_t opk, std::int64_t line)
{
    return opk * 16 + line;
}
/** Dense index of district (w, d). */
std::size_t districtIdx(std::int64_t w, std::int64_t d)
{
    return static_cast<std::size_t>(w * kDistrictsPerW + d);
}

/** One generated transaction. */
struct TxnInput
{
    bool newOrder;
    std::uint8_t w, d, c;
    std::uint16_t amount;
    std::uint8_t lines;
    /** Stock lines, ascending stock pk (the lock order), no
     * duplicates. */
    std::array<std::int64_t, kMaxLines> stock;
    std::array<std::int64_t, kMaxLines> item;
};

std::vector<TxnInput>
makeInputs(std::uint64_t seed, unsigned thread)
{
    Rng rng(seed * 0xC2B2AE3D27D4EB4Full + thread + 1);
    std::vector<TxnInput> out(kTxnsPerThread);
    for (TxnInput &t : out) {
        t.newOrder = rng.nextBool();
        t.w = static_cast<std::uint8_t>(rng.nextBelow(kWarehouses));
        t.d = static_cast<std::uint8_t>(rng.nextBelow(kDistrictsPerW));
        t.c = static_cast<std::uint8_t>(rng.nextBelow(kCustomersPerD));
        t.amount = static_cast<std::uint16_t>(1 + rng.nextBelow(500));
        std::vector<std::pair<std::int64_t, std::int64_t>> ls;
        int n = 5 + static_cast<int>(rng.nextBelow(6));
        for (int l = 0; l < n; ++l) {
            std::int64_t i = static_cast<std::int64_t>(rng.nextBelow(kItems));
            std::int64_t sw = t.w;
            if (rng.nextBelow(100) < kRemotePct) {
                sw = static_cast<std::int64_t>(
                    rng.nextBelow(kWarehouses - 1));
                if (sw >= t.w)
                    ++sw;
            }
            ls.emplace_back(stockPk(sw, i), i);
        }
        std::sort(ls.begin(), ls.end());
        ls.erase(std::unique(ls.begin(), ls.end(),
                             [](const auto &a, const auto &b) {
                                 return a.first == b.first;
                             }),
                 ls.end());
        t.lines = static_cast<std::uint8_t>(ls.size());
        for (std::size_t l = 0; l < ls.size(); ++l) {
            t.stock[l] = ls[l].first;
            t.item[l] = ls[l].second;
        }
    }
    return out;
}

DbRecord
rec(std::vector<DbValue> values, std::uint64_t mask = ~0ull)
{
    DbRecord r;
    r.values = std::move(values);
    r.dirtyMask = mask;
    return r;
}

DbValue i64(std::int64_t v) { return DbValue::ofI64(v); }

void
createSchema(ShardedDatabase &db)
{
    db.createTable({"WAREHOUSE", {{"W_ID", DbType::kI64},
                                  {"YTD", DbType::kI64}}});
    db.createTable({"DISTRICT", {{"D_ID", DbType::kI64},
                                 {"YTD", DbType::kI64},
                                 {"NEXT_O_ID", DbType::kI64}}});
    db.createTable({"CUSTOMER", {{"C_ID", DbType::kI64},
                                 {"BALANCE", DbType::kI64},
                                 {"YTD", DbType::kI64}}});
    db.createTable({"ITEM", {{"I_ID", DbType::kI64},
                             {"PRICE", DbType::kI64}}});
    db.createTable({"STOCK", {{"S_ID", DbType::kI64},
                              {"QTY", DbType::kI64}}});
    db.createTable({"OORDER", {{"O_PK", DbType::kI64},
                               {"O_ID", DbType::kI64},
                               {"C_ID", DbType::kI64},
                               {"OL_CNT", DbType::kI64}}});
    db.createTable({"ORDER_LINE", {{"OL_PK", DbType::kI64},
                                   {"O_ID", DbType::kI64},
                                   {"I_ID", DbType::kI64},
                                   {"AMOUNT", DbType::kI64}}});
}

void
load(ShardedDatabase &db)
{
    for (std::int64_t w = 0; w < kWarehouses; ++w) {
        db.persistRecord("WAREHOUSE", rec({i64(w), i64(0)}));
        for (std::int64_t d = 0; d < kDistrictsPerW; ++d) {
            db.persistRecord("DISTRICT",
                             rec({i64(districtPk(w, d)), i64(0), i64(1)}));
            for (std::int64_t c = 0; c < kCustomersPerD; ++c)
                db.persistRecord(
                    "CUSTOMER",
                    rec({i64(customerPk(w, d, c)), i64(0), i64(0)}));
        }
        for (std::int64_t i = 0; i < kItems; ++i)
            db.persistRecord("STOCK", rec({i64(stockPk(w, i)), i64(100)}));
    }
    for (std::int64_t i = 0; i < kItems; ++i)
        db.persistRecord("ITEM", rec({i64(i), i64(10 + i % 90)}));
}

/** What the clients saw commit, merged over threads. */
struct Ledger
{
    std::vector<std::int64_t> newOrders =
        std::vector<std::int64_t>(kDistricts, 0);
    std::vector<std::int64_t> districtYtd =
        std::vector<std::int64_t>(kDistricts, 0);
    std::vector<std::int64_t> customerPaid =
        std::vector<std::int64_t>(kDistricts * kCustomersPerD, 0);

    void
    merge(const Ledger &o)
    {
        for (std::size_t i = 0; i < newOrders.size(); ++i) {
            newOrders[i] += o.newOrders[i];
            districtYtd[i] += o.districtYtd[i];
        }
        for (std::size_t i = 0; i < customerPaid.size(); ++i)
            customerPaid[i] += o.customerPaid[i];
    }
};

/** One client thread's state and measurements. */
struct Worker
{
    unsigned id = 0;
    std::vector<TxnInput> inputs;
    std::size_t pos = 0;
    Ledger ledger;
    Latencies all, reads, newOrders;
    std::uint64_t attempts = 0, committed = 0, aborts = 0, xshard = 0;
    std::uint64_t userBytes = 0; ///< bytes of column values written
    std::uint64_t missingRows = 0;
    std::unique_ptr<Tracer> tracer;
};

/** Statement helpers: time each call (reads always, for
 * read_p99_us; spans only when traced). */
class Stmt
{
  public:
    Stmt(ShardedDatabase &db, Worker &w, int window, std::uint32_t parent,
         std::uint64_t op)
        : db_(db), w_(w), window_(window), parent_(parent), op_(op)
    {}

    /** Members the transaction wrote (its 2PC participants). */
    std::size_t members() const { return members_.size(); }

    /** Bytes of column values the transaction wrote. */
    std::uint64_t userBytes() const { return userBytes_; }

    std::int64_t
    get(const char *table, std::int64_t pk, std::size_t col)
    {
        DbRecord r;
        bool found;
        {
            Span s(w_.tracer.get(), Sp::kDbGet, parent_, op_);
            std::uint64_t t0 = nowNs();
            found = db_.fetchRecord(table, pk, &r);
            w_.reads.add(window_, nowNs() - t0);
        }
        if (!found || r.values.size() <= col) {
            ++w_.missingRows;
            return 0;
        }
        return r.values[col].i;
    }

    /** Take the row's owner latch (update no column). */
    void
    claim(const char *table, std::int64_t pk, std::size_t cols)
    {
        std::vector<DbValue> v(cols, DbValue::null());
        v[0] = i64(pk);
        write(table, rec(std::move(v), 0), true);
    }

    void
    update(const char *table, std::vector<DbValue> v, std::uint64_t mask)
    {
        write(table, rec(std::move(v), mask), true);
    }

    void
    upsert(const char *table, std::vector<DbValue> v)
    {
        write(table, rec(std::move(v)), false);
    }

  private:
    void
    write(const char *table, const DbRecord &r, bool update_only)
    {
        members_.insert(db_.shardIndexForPk(r.values[0].i));
        bool found = true;
        {
            Span s(w_.tracer.get(), Sp::kDbPut, parent_, op_);
            if (update_only)
                found = db_.updateRecord(table, r);
            else
                db_.persistRecord(table, r);
        }
        if (!found)
            ++w_.missingRows;
        for (std::size_t c = 1; c < r.values.size(); ++c)
            if (r.dirtyMask & (1ull << c))
                userBytes_ += 8;
    }

    ShardedDatabase &db_;
    Worker &w_;
    int window_;
    std::uint32_t parent_;
    std::uint64_t op_;
    std::set<unsigned> members_;
    std::uint64_t userBytes_ = 0;
};

void
newOrderBody(Stmt &st, const TxnInput &t)
{
    std::int64_t dpk = districtPk(t.w, t.d);
    st.claim("DISTRICT", dpk, 3);
    std::int64_t o_id = st.get("DISTRICT", dpk, 2);
    st.update("DISTRICT", {i64(dpk), DbValue::null(), i64(o_id + 1)},
              1ull << 2);
    std::int64_t total = 0;
    for (int l = 0; l < t.lines; ++l) {
        total += st.get("ITEM", t.item[l], 1);
        st.claim("STOCK", t.stock[l], 2);
        std::int64_t qty = st.get("STOCK", t.stock[l], 1);
        st.update("STOCK",
                  {i64(t.stock[l]), i64(qty > 10 ? qty - 1 : qty + 91)},
                  1ull << 1);
    }
    std::int64_t opk = orderPk(dpk, o_id);
    for (int l = 0; l < t.lines; ++l)
        st.upsert("ORDER_LINE", {i64(orderLinePk(opk, l)), i64(o_id),
                                 i64(t.item[l]), i64(total)});
    st.upsert("OORDER", {i64(opk), i64(o_id),
                         i64(customerPk(t.w, t.d, t.c)), i64(t.lines)});
}

void
paymentBody(Stmt &st, const TxnInput &t)
{
    st.claim("WAREHOUSE", t.w, 2);
    std::int64_t wytd = st.get("WAREHOUSE", t.w, 1);
    st.update("WAREHOUSE", {i64(t.w), i64(wytd + t.amount)}, 1ull << 1);
    std::int64_t dpk = districtPk(t.w, t.d);
    st.claim("DISTRICT", dpk, 3);
    std::int64_t dytd = st.get("DISTRICT", dpk, 1);
    st.update("DISTRICT", {i64(dpk), i64(dytd + t.amount), DbValue::null()},
              1ull << 1);
    std::int64_t cpk = customerPk(t.w, t.d, t.c);
    st.claim("CUSTOMER", cpk, 3);
    std::int64_t bal = st.get("CUSTOMER", cpk, 1);
    std::int64_t cytd = st.get("CUSTOMER", cpk, 2);
    st.update("CUSTOMER",
              {i64(cpk), i64(bal - t.amount), i64(cytd + t.amount)},
              (1ull << 1) | (1ull << 2));
}

/** Run @p t until it commits, retrying aborted attempts. */
void
runTxn(ShardedDatabase &db, Worker &w, const TxnInput &t, const Phase &ph,
       std::uint64_t op)
{
    Tracer *tr = w.tracer.get();
    std::uint64_t first = nowNs();
    for (;;) {
        Status s;
        std::uint64_t bytes = 0;
        std::size_t members = 0;
        {
            Span root(tr, Sp::kTpccTxn, Tracer::kNone, op);
            try {
                Txn txn = db.beginTxn();
                {
                    Span body(tr, Sp::kDbTxnBody, root.handle(), op);
                    Stmt st(db, w, ph.window(nowNs()), body.handle(), op);
                    if (t.newOrder)
                        newOrderBody(st, t);
                    else
                        paymentBody(st, t);
                    bytes = st.userBytes();
                    members = st.members();
                }
                Span commit(tr, Sp::kDbCommit, root.handle(), op);
                s = txn.commit();
            } catch (const TxnAbortError &e) {
                s = Status::make(e.code(), e.what());
            }
        }
        std::uint64_t done = nowNs();
        int dw = ph.window(done);
        if (dw >= 0)
            ++w.attempts;
        if (!s.isOk()) {
            if (dw >= 0)
                ++w.aborts;
            continue;
        }
        std::size_t di = districtIdx(t.w, t.d);
        if (t.newOrder) {
            ++w.ledger.newOrders[di];
        } else {
            w.ledger.districtYtd[di] += t.amount;
            w.ledger.customerPaid[di * kCustomersPerD + t.c] += t.amount;
        }
        if (dw >= 0) {
            ++w.committed;
            w.userBytes += bytes;
            w.xshard += members > 1 ? 1 : 0;
            w.all.add(dw, done - first);
            if (t.newOrder)
                w.newOrders.add(dw, done - first);
        }
        return;
    }
}

struct TpccRun
{
    Latencies all, reads, newOrders;
    std::uint64_t attempts = 0, committed = 0, aborts = 0, xshard = 0,
                  userBytes = 0, missingRows = 0;
    double seconds = 0;
    DbCounters db; ///< counts inside the timed windows
    std::vector<std::unique_ptr<Tracer>> tracers;

    double throughput() const { return seconds > 0 ? committed / seconds : 0; }
};

void
tpccPhase(ShardedDatabase &db, std::vector<std::unique_ptr<Worker>> &ws,
          unsigned seconds, bool traced, TpccRun &out)
{
    Phase ph = Phase::after(kWarmupNs, seconds);
    std::atomic<bool> stop{false};
    for (auto &w : ws) {
        w->all = Latencies(seconds);
        w->reads = Latencies(seconds);
        w->newOrders = Latencies(seconds);
        w->attempts = w->committed = w->aborts = w->xshard = 0;
        w->userBytes = 0;
        w->tracer = traced ? std::make_unique<Tracer>(
                                 w->id, kKeptSpansPerThread)
                           : nullptr;
    }
    std::vector<std::thread> threads;
    for (auto &wp : ws)
        threads.emplace_back([&, w = wp.get()]() {
            std::uint64_t op = std::uint64_t(w->id) << 40;
            while (!stop.load(std::memory_order_relaxed)) {
                runTxn(db, *w, w->inputs[w->pos], ph, ++op);
                w->pos = (w->pos + 1) % w->inputs.size();
            }
        });
    sleepUntilNs(ph.start);
    DbCounters db0 = DbCounters::read(db);
    sleepUntilNs(ph.end);
    out.db += DbCounters::read(db).since(db0);
    stop.store(true);
    for (auto &t : threads)
        t.join();
    out.seconds += ph.seconds();
    Latencies all(seconds), reads(seconds), newOrders(seconds);
    for (auto &w : ws) {
        all.merge(w->all);
        reads.merge(w->reads);
        newOrders.merge(w->newOrders);
        out.attempts += w->attempts;
        out.committed += w->committed;
        out.aborts += w->aborts;
        out.xshard += w->xshard;
        out.userBytes += w->userBytes;
        out.missingRows += w->missingRows;
        w->missingRows = 0;
        if (w->tracer)
            out.tracers.push_back(std::move(w->tracer));
    }
    out.all.append(all);
    out.reads.append(reads);
    out.newOrders.append(newOrders);
}

std::int64_t
column(ShardedDatabase &db, const char *table, std::int64_t pk,
       std::size_t col, bool *ok)
{
    DbRecord r;
    if (!db.fetchRecord(table, pk, &r) || r.values.size() <= col) {
        *ok = false;
        return 0;
    }
    return r.values[col].i;
}

/** The TPC-C consistency conditions against the clients' ledger. */
void
checkState(ShardedDatabase &db, const Ledger &lg, Report &report,
           const std::string &when)
{
    bool rows = true;
    std::uint64_t bad_next = 0, bad_orders = 0, bad_ytd = 0, bad_cust = 0;
    std::size_t expect_orders = 0;
    for (std::int64_t w = 0; w < kWarehouses; ++w) {
        std::int64_t sum_d = 0, paid = 0;
        for (std::int64_t d = 0; d < kDistrictsPerW; ++d) {
            std::size_t di = districtIdx(w, d);
            std::int64_t dpk = districtPk(w, d);
            std::int64_t next = column(db, "DISTRICT", dpk, 2, &rows);
            std::int64_t ytd = column(db, "DISTRICT", dpk, 1, &rows);
            sum_d += ytd;
            paid += lg.districtYtd[di];
            bad_next += next - 1 != lg.newOrders[di];
            bad_ytd += ytd != lg.districtYtd[di];
            for (std::int64_t o = std::max<std::int64_t>(
                     1, next - kOrderSlots);
                 o < next; ++o) {
                ++expect_orders;
                bool ok = true;
                std::int64_t opk = orderPk(dpk, o);
                std::int64_t lines = column(db, "OORDER", opk, 3, &ok);
                ok = ok && column(db, "OORDER", opk, 1, &ok) == o;
                for (std::int64_t l = 0; ok && l < lines; ++l)
                    ok = column(db, "ORDER_LINE", orderLinePk(opk, l), 1,
                                &ok) == o;
                bad_orders += ok ? 0 : 1;
            }
            for (std::int64_t c = 0; c < kCustomersPerD; ++c) {
                std::int64_t bal = column(db, "CUSTOMER",
                                          customerPk(w, d, c), 1, &rows);
                bad_cust +=
                    bal != -lg.customerPaid[di * kCustomersPerD + c];
            }
        }
        std::int64_t wytd = column(db, "WAREHOUSE", w, 1, &rows);
        bad_ytd += wytd != sum_d || wytd != paid;
    }
    report.check(rows, when + ": a preloaded row is missing");
    report.check(bad_next == 0,
                 when + ": district NEXT_O_ID - 1 differs from the "
                        "committed NewOrder count in " +
                     std::to_string(bad_next) + " districts");
    report.check(bad_orders == 0,
                 when + ": " + std::to_string(bad_orders) +
                     " recent orders or their lines are missing");
    report.check(db.rowCount("OORDER") == expect_orders,
                 when + ": OORDER holds rows of uncommitted orders");
    report.check(bad_ytd == 0,
                 when + ": warehouse YTD differs from its districts' YTD "
                        "or from the acknowledged payments");
    report.check(bad_cust == 0,
                 when + ": " + std::to_string(bad_cust) +
                     " customer balances differ from the acknowledged "
                     "payments");
}

} // namespace

void
runTpccXshard(const Args &args, Report &report)
{
    const unsigned threads = clientThreads();
    std::vector<std::unique_ptr<Worker>> ws;
    for (unsigned t = 0; t < threads; ++t) {
        auto w = std::make_unique<Worker>();
        w->id = t;
        w->inputs = makeInputs(args.seed, t);
        ws.push_back(std::move(w));
    }

    TpccRun run, traced;
    std::vector<double> setup_s, recovery_ms, crash_ms;
    for (int round = 0; round < kRounds; ++round) {
        std::uint64_t t0 = nowNs();
        auto db = std::make_unique<ShardedDatabase>(dbConfig(),
                                                    dbDeviceModel());
        createSchema(*db);
        load(*db);
        setup_s.push_back((nowNs() - t0) / 1e9);

        for (auto &w : ws)
            w->ledger = Ledger();
        tpccPhase(*db, ws, roundSeconds(args), false, run);
        if (args.trace)
            tpccPhase(*db, ws, roundSeconds(args), true, traced);
        Ledger ledger;
        for (auto &w : ws)
            ledger.merge(w->ledger);
        checkState(*db, ledger, report, "before the power cut");

        for (int rep = 0; rep < kRecoveryReps; ++rep) {
            std::uint64_t c0 = nowNs();
            db->crash(CrashMode::kDiscardUnflushed, args.seed + rep);
            std::uint64_t c1 = nowNs();
            DbRecord r;
            bool ok = db->fetchRecord("WAREHOUSE", 0, &r);
            std::uint64_t c2 = nowNs();
            report.check(ok, "recovery: the database did not serve a read");
            recovery_ms.push_back((c2 - c0) / 1e6);
            crash_ms.push_back((c1 - c0) / 1e6);
            if (rep == 0)
                checkState(*db, ledger, report, "after the power cut");
        }
    }
    report.check(run.missingRows + traced.missingRows == 0,
                 "a transaction found a preloaded row missing");
    report.attempted = run.committed;
    report.failed = 0;

    if (!args.trace) {
        reportEndToEnd(report, run.committed, run.seconds, run.all,
                       run.newOrders, setup_s);
        return;
    }

    Tracer merged(0, 0);
    std::vector<const Tracer *> tracers;
    for (auto &t : traced.tracers) {
        merged.merge(*t);
        tracers.push_back(t.get());
    }
    report.check(writeTrace(args.outDir + "/trace-tpcc_xshard.csv",
                            tracers),
                 "could not write the trace file");
    printSpanSummary(merged);
    Tracer::Agg get = merged.agg(Sp::kDbGet);
    Tracer::Agg put = merged.agg(Sp::kDbPut);
    Tracer::Agg commit = merged.agg(Sp::kDbCommit);
    double attempts = std::max<std::uint64_t>(1, run.attempts);
    report.metric("read_p99_us", run.reads.quantileUs(0.99), "us",
                  run.reads.count());
    report.metric("recovery_ms", median(recovery_ms), "ms",
                  recovery_ms.size());
    report.metric("failed_frac", run.aborts / attempts, "ratio",
                  run.attempts);
    report.metric("db.get_us.p50", quantile(get.durs, 0.50) / 1e3, "us",
                  get.count);
    report.metric("db.get_us.p99", quantile(get.durs, 0.99) / 1e3, "us",
                  get.count);
    report.metric("db.put_us.p50", quantile(put.durs, 0.50) / 1e3, "us",
                  put.count);
    report.metric("db.put_us.p99", quantile(put.durs, 0.99) / 1e3, "us",
                  put.count);
    report.metric("db.txn_body_us",
                  merged.agg(Sp::kDbTxnBody).meanUs(), "us",
                  merged.agg(Sp::kDbTxnBody).count);
    report.metric("db.commit_us.p50", quantile(commit.durs, 0.50) / 1e3,
                  "us", commit.count);
    report.metric("db.commit_us.p99", quantile(commit.durs, 0.99) / 1e3,
                  "us", commit.count);
    double t_attempts = std::max<std::uint64_t>(1, traced.attempts);
    report.metric("db.abort_frac", traced.aborts / t_attempts, "ratio",
                  traced.attempts);
    report.metric("db.xshard_frac",
                  traced.committed ? double(traced.xshard) / traced.committed
                                   : 0,
                  "ratio", traced.committed);
    report.metric("db.recover_ms", median(crash_ms), "ms", crash_ms.size());
    reportDbCounters(report, traced.db, traced.committed,
                     static_cast<double>(traced.userBytes));
    report.metric("trace.overhead_frac",
                  1.0 - traced.throughput() / run.throughput(), "ratio",
                  traced.committed);
    report.zeroLayers({"net.", "pjh.", "gc."});
}

} // namespace perfbench
