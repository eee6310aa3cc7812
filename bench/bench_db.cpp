// E8 / Fig 6: the hall database behind the monitoring tool.
//
// Measures the store operations the Fig 6 applications lean on: appending
// intercepted actions, querying a robot's action list, filtering by time
// range, listing sources, and replay-cursor iteration. Three storage
// sections ride along (docs/storage.md): group-commit WAL append
// throughput, the hall journal's ingest/compaction/restore trio, and the
// base's durable state as the fleet grows.
#include <benchmark/benchmark.h>

#include <chrono>

#include "smoke.h"

#include "db/journal.h"
#include "db/store.h"
#include "midas/durable.h"
#include "midas/node.h"
#include "obs/metrics.h"

namespace {

using namespace pmp;
using rt::Dict;
using rt::Value;

Value motor_action(int i) {
    return Value{Dict{{"device", Value{"motor:x"}},
                      {"action", Value{"rotate"}},
                      {"degrees", Value{static_cast<double>(i % 360)}}}};
}

db::EventStore populated(int records, int robots) {
    db::EventStore store;
    for (int i = 0; i < records; ++i) {
        store.append("robot:" + std::to_string(i % robots),
                     SimTime{std::int64_t{i} * 1'000'000}, motor_action(i));
    }
    return store;
}

void BM_Append(benchmark::State& state) {
    db::EventStore store;
    std::int64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            store.append("robot:1:1", SimTime{++i * 1'000'000}, motor_action(i)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Append);

void BM_QueryBySource(benchmark::State& state) {
    auto store = populated(static_cast<int>(state.range(0)), 8);
    db::Query q;
    q.source = "robot:3";
    for (auto _ : state) {
        benchmark::DoNotOptimize(store.query(q));
    }
    state.counters["records"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_QueryBySource)->Arg(1'000)->Arg(10'000)->Arg(100'000);

void BM_QueryTimeRange(benchmark::State& state) {
    auto store = populated(static_cast<int>(state.range(0)), 8);
    db::Query q;
    q.from = SimTime{state.range(0) * 250'000};
    q.until = SimTime{state.range(0) * 750'000};
    for (auto _ : state) {
        benchmark::DoNotOptimize(store.query(q));
    }
}
BENCHMARK(BM_QueryTimeRange)->Arg(1'000)->Arg(10'000)->Arg(100'000);

void BM_QueryWithLimit(benchmark::State& state) {
    auto store = populated(100'000, 8);
    db::Query q;
    q.source = "robot:1";
    q.limit = 20;  // the Fig 6 list panel shows a page at a time
    for (auto _ : state) {
        benchmark::DoNotOptimize(store.query(q));
    }
}
BENCHMARK(BM_QueryWithLimit);

void BM_Sources(benchmark::State& state) {
    auto store = populated(static_cast<int>(state.range(0)), 16);
    for (auto _ : state) {
        benchmark::DoNotOptimize(store.sources());
    }
}
BENCHMARK(BM_Sources)->Arg(1'000)->Arg(100'000);

void BM_ReplayCursor(benchmark::State& state) {
    auto store = populated(static_cast<int>(state.range(0)), 4);
    db::Query q;
    q.source = "robot:1";
    auto records = store.query(q);
    for (auto _ : state) {
        db::ReplayCursor cursor(records);
        std::int64_t acc = 0;
        while (!cursor.done()) {
            acc += cursor.gap_before_next().count();
            cursor.next();
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_ReplayCursor)->Arg(4'000)->Arg(40'000);

// ---------------------------------------------------------------------------
// Group commit (docs/storage.md): one CRC-framed multi-record batch per
// medium commit instead of one frame per record. Arg(0) is the per-record
// baseline; the others are batch_bytes.
//
// The simulated medium is RAM, so the raw CPU rate (items_per_second)
// understates the win — a real WAL is commit-bound, not memcpy-bound. The
// section therefore also reports `records_per_commit` (the amortization
// factor group commit buys) and `modeled_sync_rps`, the throughput of a
// medium that charges 50us per commit, which is where the >=5x at 16KiB
// shows up. `amplification` is wal-bytes-written / payload-bytes.

void BM_JournalAppend(benchmark::State& state) {
    auto disk = std::make_shared<db::JournalStorage>();
    db::JournalConfig cfg;
    cfg.batch_bytes = static_cast<std::size_t>(state.range(0));
    db::Journal journal(disk, cfg);
    const Value record = motor_action(7);
    const std::size_t payload = record.encode().size();
    const std::uint64_t flushes0 =
        obs::Registry::global().counter("db.journal.batch_flushes", "").value();
    std::uint64_t written = 0;
    std::uint64_t appended = 0;
    for (auto _ : state) {
        journal.append(record);
        ++appended;
        if (disk->wal.size() > (64u << 20)) {
            state.PauseTiming();
            written += disk->wal.size();
            disk->wal.clear();
            state.ResumeTiming();
        }
    }
    journal.flush();
    written += disk->wal.size();
    const std::uint64_t commits =
        cfg.batching()
            ? obs::Registry::global().counter("db.journal.batch_flushes", "").value() -
                  flushes0
            : appended;
    const double per_commit = static_cast<double>(appended) /
                              static_cast<double>(std::max<std::uint64_t>(commits, 1));
    state.SetItemsProcessed(state.iterations());
    state.counters["records_per_commit"] = per_commit;
    state.counters["modeled_sync_rps"] = per_commit / 50e-6;
    state.counters["amplification"] =
        static_cast<double>(written) /
        static_cast<double>(payload * std::max<std::uint64_t>(appended, 1));
}
BENCHMARK(BM_JournalAppend)->Arg(0)->Arg(4096)->Arg(16384)->Arg(65536);

// ---------------------------------------------------------------------------
// Hall journal ingest (docs/storage.md): a durable base's hall store taking
// N monitor records, each journaled through the append hook, compactions
// included. Reports the storage trio — write cost (`ns_per_record`,
// `rewrite_bytes_per_record`: snapshot bytes written per record), space
// (`disk_bytes_per_live_byte`: snapshot + previous chain + WAL over the
// encoded size of the base's snapshot of the store) — and the read side
// (`restore_us`: decode and replay of the medium a restart would read).
// With byte-paced compaction the per-record cost is flat in N; a fixed
// record cadence re-encodes the whole log every few hundred records and
// grows linearly.

void BM_HallJournal(benchmark::State& state) {
    const auto records = static_cast<int>(state.range(0));
    double ingest_ns = 0;
    double rewrite_bytes = 0;
    double compactions = 0;
    double disk_per_live = 0;
    double restore_us = 0;
    for (auto _ : state) {
        sim::Simulator sim;
        net::Network net(sim, net::NetworkConfig{}, 29);
        auto disk = std::make_shared<db::JournalStorage>();
        midas::BaseConfig bc;
        bc.issuer = "hall";
        midas::BaseStation hub(net, "hall", net::Position{0, 0}, 120.0, bc, {}, disk);
        db::EventStore& store = hub.store();

        // A compaction empties the WAL: count the chain it wrote then.
        std::size_t last_wal = disk->wal.size();
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < records; ++i) {
            store.append("robot:" + std::to_string(i % 64), SimTime{std::int64_t{i} * 1'000'000},
                         motor_action(i));
            if (disk->wal.size() < last_wal) {
                rewrite_bytes += static_cast<double>(disk->snapshot.size());
                compactions += 1;
            }
            last_wal = disk->wal.size();
        }
        const auto t1 = std::chrono::steady_clock::now();
        ingest_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();

        state.PauseTiming();
        const double on_disk = static_cast<double>(disk->snapshot.size() +
                                                   disk->snapshot_prev.size() + disk->wal.size());
        const double live = static_cast<double>(
            midas::BaseDurableState{}.to_snapshot(&store).encode().size());
        disk_per_live += on_disk / live;
        state.ResumeTiming();

        const auto r0 = std::chrono::steady_clock::now();
        midas::BaseDurableState restored =
            midas::BaseDurableState::replay(db::Journal(disk).restore());
        const auto r1 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(restored.events.size());
        restore_us += std::chrono::duration<double, std::micro>(r1 - r0).count();
    }
    const double n = static_cast<double>(state.iterations());
    state.SetItemsProcessed(state.iterations() * records);
    state.counters["ns_per_record"] = ingest_ns / (n * records);
    state.counters["compactions"] = compactions / n;
    state.counters["rewrite_bytes_per_record"] = rewrite_bytes / (n * records);
    state.counters["disk_bytes_per_live_byte"] = disk_per_live / n;
    state.counters["restore_us"] = restore_us / n;
}
BENCHMARK(BM_HallJournal)->Arg(1'000)->Arg(10'000)->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Recovery state at fleet scale (docs/storage.md): the base's durable state
// grows linearly with its adapted-node book. The 10^5 / 10^6 points are
// modeled from the measured per-entry snapshot cost, so `journal_bytes_model`
// shows the bytes a restarted base replays at that fleet size.

void BM_RecoveryTrafficModel(benchmark::State& state) {
    // Per-entry snapshot cost from two small fleets (slope of the line).
    auto snapshot_bytes = [](std::int64_t fleet) {
        midas::BaseDurableState st;
        st.epoch = 1;
        for (std::int64_t n = 0; n < fleet; ++n) {
            const std::string label = "fleet" + std::to_string(n);
            auto& e = st.book[label];
            e.node = static_cast<std::uint64_t>(1000 + n);
            e.label = label;
            e.since = SimTime{n * 1'000'000};
            for (int p = 0; p < 3; ++p) {
                e.installed["hall/policy" + std::to_string(p)] =
                    static_cast<std::uint64_t>(n * 3 + p + 1);
            }
        }
        return static_cast<double>(st.to_snapshot().encode().size());
    };
    const double base = snapshot_bytes(1'000);
    const double slope = (snapshot_bytes(2'000) - base) / 1'000.0;

    for (auto _ : state) {
        benchmark::DoNotOptimize(slope);
    }
    const double fleet = static_cast<double>(state.range(0));
    state.counters["journal_bytes_model"] = base + slope * (fleet - 1'000.0);
}
BENCHMARK(BM_RecoveryTrafficModel)->Arg(100'000)->Arg(1'000'000);

}  // namespace

int main(int argc, char** argv) { return pmp::bench::run_main(argc, argv); }
