// perfbench: the repository benchmark's main program (see perfbench/README.md).
//
//   perfbench --workload <advised_calls|fleet_cells|roam_churn>
//             --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// A run repeats one seeded repetition of the workload until --seconds have
// passed (at least three times untraced). Every repetition of a seed does
// identical work, so its virtual-time results and counts must agree
// exactly. Host-time metrics are medians over repetitions, scaled to
// reference-host speed by a fixed reference kernel timed between
// repetitions (README.md, "Host time"). The last line of standard output
// is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1). Exit status is non-zero if any output check or
// operation failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/log.h"
#include "harness.h"

namespace {

using namespace perfbench;

using Runner = Rep (*)(const Options&);

Runner runner_for(const std::string& workload) {
    if (workload == "advised_calls") return run_advised_calls;
    if (workload == "fleet_cells") return run_fleet_cells;
    if (workload == "roam_churn") return run_roam_churn;
    return nullptr;
}

/// The reference kernel: fixed, standard-library-only work shaped like the
/// program's hot paths (string-keyed maps, small allocations, type-erased
/// calls, shared ownership). It never touches program code, so no change to
/// the program can speed it up; what moves it is the host. On the reference
/// host (one 2.1 GHz vCPU of a shared 4-vCPU VM, quiet) it takes about
/// kReferenceKernelS.
constexpr double kReferenceKernelS = 0.012;

double reference_kernel_once() {
    Clock::time_point a = Clock::now();
    std::map<std::string, std::uint64_t> by_name;
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> by_id;
    std::vector<std::function<std::uint64_t(std::uint64_t)>> fns;
    std::vector<std::shared_ptr<std::uint64_t>> owners;
    Gen g(42);
    std::uint64_t acc = 0;
    for (int i = 0; i < 4; ++i) {
        fns.push_back([i](std::uint64_t x) { return x * 31 + static_cast<std::uint64_t>(i); });
    }
    for (int i = 0; i < 18000; ++i) {
        std::uint64_t k = g.below(8000);
        by_name["node:" + std::to_string(k)] += k;
        by_id[k].push_back(k);
        owners.push_back(std::make_shared<std::uint64_t>(k));
        auto copy = owners[g.below(owners.size())];
        acc += fns[k % fns.size()](*copy);
        auto it = by_name.find("node:" + std::to_string(g.below(8000)));
        if (it != by_name.end()) acc += it->second;
    }
    if (acc == 1) std::fprintf(stderr, "%c", ' ');  // keep the work observable
    return secs(a, Clock::now());
}

/// Host speed factor: kReferenceKernelS over the reference kernel's median
/// time of three runs, now. Below 1 when the host is slower than the
/// reference host (contended caches, memory bandwidth, clock).
double host_speed() {
    std::vector<double> t;
    for (int i = 0; i < 3; ++i) t.push_back(reference_kernel_once());
    return kReferenceKernelS / median(t);
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[256];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                      metrics[i].unit.c_str());
        out += buf;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
    std::printf("%s\n", title);
    for (const Metric& m : metrics) {
        std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
}

/// Report what went wrong in a repetition; returns whether it was clean.
bool report_problems(const Rep& rep) {
    for (const std::string& f : rep.failures) std::printf("FAILED op: %s\n", f.c_str());
    for (const std::string& e : rep.check_errors) std::printf("CHECK failed: %s\n", e.c_str());
    return rep.failed == 0 && rep.checks_ok;
}

/// End-to-end metrics of the untraced repetitions. Host times are reported
/// at reference-host speed: each repetition's measured times are scaled by
/// the speed factor taken around it (see host_speed), then the median over
/// repetitions is kept.
std::vector<Metric> end_to_end(const std::vector<Rep>& reps, const std::vector<double>& speed) {
    std::vector<double> setup, run, cps, p50, p99;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const Rep& r = reps[i];
        const double f = speed[i];
        setup.push_back(r.setup_s * f);
        run.push_back(r.run_s * f);
        cps.push_back(r.calls / (r.run_s * f));
        p50.push_back(quantile(r.call_ns, 0.50) * f);
        p99.push_back(quantile(r.call_ns, 0.99) * f);
    }
    const Rep& v = reps.front();  // virtual-time results: identical in every repetition
    return {
        {"setup_s", median(setup), "s"},
        {"run_s", median(run), "s"},
        {"calls_per_s", median(cps), "calls/s"},
        {"call_ns_p50", median(p50), "ns"},
        {"call_ns_p99", median(p99), "ns"},
        {"adapt_ms_p50", quantile(v.adapt_ms, 0.50), "ms"},
        {"adapt_ms_p99", quantile(v.adapt_ms, 0.99), "ms"},
        {"revoke_ms_p50", quantile(v.revoke_ms, 0.50), "ms"},
        {"revoke_ms_p99", quantile(v.revoke_ms, 0.99), "ms"},
        {"replace_ms_p99", quantile(v.replace_ms, 0.99), "ms"},
        {"backhaul_frames_per_node_s", static_cast<double>(v.backhaul) / v.node_seconds,
         "frames"},
        {"air_bytes_per_node_s", static_cast<double>(v.bytes) / v.node_seconds, "B"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
}

int selftest() {
    // Determinism at a small size: two repetitions of one seed, untraced
    // and traced, must agree on every virtual-time result and count.
    bool ok = true;
    for (const char* w : {"advised_calls", "fleet_cells", "roam_churn"}) {
        Runner run = runner_for(w);
        Options opt;
        opt.seed = 7;
        opt.small = true;
        Rep a = run(opt);
        Rep b = run(opt);
        opt.traced = true;
        Rep c = run(opt);
        bool same = a.fingerprint() == b.fingerprint() && a.fingerprint() == c.fingerprint();
        bool clean = report_problems(a) && report_problems(b) && report_problems(c);
        bool nonempty = !a.adapt_ms.empty() && !a.revoke_ms.empty() && !a.replace_ms.empty() &&
                        a.attempted > 0;
        std::printf("%-14s deterministic=%s clean=%s samples=%s (adapt %zu, revoke %zu, "
                    "replace %zu, attempted %llu)\n",
                    w, same ? "yes" : "NO", clean ? "yes" : "NO", nonempty ? "yes" : "NO",
                    a.adapt_ms.size(), a.revoke_ms.size(), a.replace_ms.size(),
                    static_cast<unsigned long long>(a.attempted));
        ok = ok && same && clean && nonempty;
    }
    std::printf("selftest %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload <advised_calls|fleet_cells|roam_churn> "
                 "--seed <n> --seconds <s> --trace <0|1>\n"
                 "       perfbench --selftest\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    // Warnings still reach stderr; nothing the program logs may land on
    // stdout, whose last line is the result.
    pmp::Log::set_level(pmp::LogLevel::kWarn);
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
        if (a == "--selftest") return selftest();
        if (a == "--workload") {
            workload = value();
        } else if (a == "--seed") {
            seed = std::stoull(value());
        } else if (a == "--seconds") {
            seconds = std::stod(value());
        } else if (a == "--trace") {
            traced = value() == "1";
        } else {
            return usage();
        }
    }
    Runner run = runner_for(workload);
    if (!run || seconds <= 0) return usage();

    Options opt;
    opt.seed = seed;
    std::vector<Rep> plain, tracedreps;
    std::vector<double> plain_speed, traced_speed;
    Clock::time_point start = Clock::now();
    // Untraced repetitions; a traced run alternates untraced and traced
    // ones so that both see the same host conditions (tracing overhead).
    // The host's speed is sampled between repetitions; each repetition is
    // scaled by the mean of the samples on either side of it.
    double speed_before = host_speed();
    for (std::size_t k = 0; k < 64; ++k) {
        bool done = secs(start, Clock::now()) >= seconds;
        std::size_t have = traced ? std::min(plain.size(), tracedreps.size()) : plain.size();
        if (done && have >= (traced ? 1 : 3)) break;
        opt.traced = traced && k % 2 == 1;
        Rep rep = run(opt);
        double speed_after = host_speed();
        double f = (speed_before + speed_after) / 2;
        std::printf("rep %zu%s: setup_s %.4f run_s %.4f (measured), host speed %.3f\n", k,
                    opt.traced ? " traced" : "", rep.setup_s, rep.run_s, f);
        (opt.traced ? tracedreps : plain).push_back(std::move(rep));
        (opt.traced ? traced_speed : plain_speed).push_back(f);
        speed_before = speed_after;
    }

    bool correct = true;
    for (const Rep& r : plain) correct = report_problems(r) && correct;
    for (const Rep& r : tracedreps) correct = report_problems(r) && correct;
    const std::string fp = plain.front().fingerprint();
    for (const Rep& r : plain) correct = correct && r.fingerprint() == fp;
    for (const Rep& r : tracedreps) correct = correct && r.fingerprint() == fp;
    if (!correct) std::printf("repetitions: %zu untraced, %zu traced\n", plain.size(),
                              tracedreps.size());

    std::vector<Metric> e2e = end_to_end(plain, plain_speed);
    std::printf("workload %s seed %llu: %zu untraced + %zu traced repetitions in %.1f s\n",
                workload.c_str(), static_cast<unsigned long long>(seed), plain.size(),
                tracedreps.size(), secs(start, Clock::now()));
    std::printf("  operations attempted %llu, failed %llu; adapt samples %zu, revoke %zu, "
                "replace %zu\n",
                static_cast<unsigned long long>(plain.front().attempted),
                static_cast<unsigned long long>(plain.front().failed),
                plain.front().adapt_ms.size(), plain.front().revoke_ms.size(),
                plain.front().replace_ms.size());
    print_metrics("end-to-end:", e2e);

    std::vector<Metric> out = e2e;
    if (traced) {
        // Per-layer metrics: medians over traced repetitions, in the order
        // the workload reported them.
        std::vector<Metric> layer;
        const Rep& first = tracedreps.front();
        for (std::size_t i = 0; i < first.layer.size(); ++i) {
            std::vector<double> vals;
            for (const Rep& r : tracedreps) vals.push_back(r.layer[i].second.first);
            layer.push_back({first.layer[i].first, median(vals), first.layer[i].second.second});
        }
        // Tracing overhead from adjacent (untraced, traced) pairs, which saw
        // the same host conditions.
        std::vector<double> overhead;
        for (std::size_t i = 0; i < std::min(plain.size(), tracedreps.size()); ++i) {
            overhead.push_back(tracedreps[i].run_s * traced_speed[i] /
                               (plain[i].run_s * plain_speed[i]) - 1.0);
        }
        layer.push_back({"trace.overhead_ratio", median(overhead), "ratio"});
        print_metrics("per-layer (traced run):", layer);
        for (const Metric& m : layer) {
            if (m.name == "trace.attributed_ratio") {
                std::printf("self-check: timer + role + app time = %.1f%% of traced run_s "
                            "(must be within 10%%): %s\n",
                            100 * m.value, std::abs(m.value - 1.0) <= 0.1 ? "ok" : "FAILED");
                correct = correct && std::abs(m.value - 1.0) <= 0.1;
            }
        }
        out = layer;
    }
    print_json(correct, plain.front().attempted, plain.front().failed, out);
    return correct ? 0 : 1;
}
