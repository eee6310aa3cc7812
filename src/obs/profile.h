// Per-extension cost attribution and causal-tree analysis.
//
// Independently authored extensions share one node; when the node's
// budget burns, someone must be billable. Each node's weaver keeps that
// ledger per (extension, pointcut) — so "which extension" and "which join
// point of it" are both answerable — and reports it as
// `profile.advice_calls` / `profile.advice_ns` rows labelled
// "<extension>|<pointcut>" (prose::AdviceSite); the receiver reports the
// script engines' interpreter steps per extension as `profile.steps`.
// attribution_from folds those rows, summed over a process's nodes, into
// per-extension bills.
//
// The second half operates on *finished traces*: build_trace_trees folds
// a TraceEvent stream (live buffer, JSON dump, flight-recorder tail) into
// causal trees using the trace/parent fields, render_tree prints one
// deterministically (seed replays compare byte-identical), critical_path
// extracts the chain of spans that actually bounded a trace's latency,
// and to_chrome_trace emits the Chrome trace-event format for
// chrome://tracing / Perfetto.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pmp::obs {

/// One dispatch site's cost, decoded from a snapshot.
struct SiteCost {
    std::string extension;
    std::string pointcut;
    std::uint64_t invocations = 0;
    double total_ns = 0;
    double p95_ns = 0;
};

/// One extension's bill: everything its advice cost this node.
struct ExtensionCost {
    std::string extension;
    std::uint64_t invocations = 0;
    double total_ns = 0;
    std::uint64_t steps = 0;
    std::vector<SiteCost> sites;  ///< by descending total_ns
};

/// Fold `profile.*` samples out of a snapshot (live or parsed from JSON)
/// into per-extension bills, by descending total_ns. A site's invocations
/// are its exact `profile.advice_calls`; its total_ns is the timed samples'
/// mean times that count.
std::vector<ExtensionCost> attribution_from(const Snapshot& snap);

// ---------------------------------------------------------------------------
// Causal trees over finished traces.

struct SpanNode {
    std::uint64_t span = 0;
    std::uint64_t parent = 0;  ///< 0 = root position
    std::uint64_t trace = 0;
    SimTime begin;
    SimTime end;
    bool ended = false;
    std::string component;
    std::string name;
    KeyValues kv;  ///< begin kv, then end kv
    std::vector<std::size_t> children;  ///< indices into TraceTree::spans

    Duration duration() const { return ended ? end - begin : Duration{0}; }
};

struct TreeInstant {
    SimTime at;
    std::uint64_t parent = 0;
    std::string component;
    std::string name;
    KeyValues kv;
};

struct TraceTree {
    std::uint64_t trace_id = 0;
    std::vector<SpanNode> spans;        ///< ascending span id
    std::vector<std::size_t> roots;     ///< spans with no in-tree parent
    std::vector<TreeInstant> instants;  ///< in recording order
};

/// Group a TraceEvent stream into causal trees, ascending trace id.
/// Events with trace 0 (recorded before causal tracing, or synthetic) are
/// ignored; span ends whose begin is absent are ignored (the begin event
/// carries the linkage).
std::vector<TraceTree> build_trace_trees(const std::vector<TraceEvent>& events);

/// Deterministic indented rendering of one tree — identical input events
/// produce identical bytes, which is what the seed-replay tests compare.
std::string render_tree(const TraceTree& tree);

/// One hop of a trace's critical path.
struct CriticalHop {
    std::uint64_t span = 0;
    std::string component;
    std::string name;
    Duration total{0};  ///< the span's own duration
    Duration self{0};   ///< total minus the next hop's duration
};

/// Walk from the longest finished root span down through whichever child
/// finished last (the child that bounded its parent's completion). The
/// `self` column is where the time actually went.
std::vector<CriticalHop> critical_path(const TraceTree& tree);

/// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
/// Traces become processes, spans complete ("X") events, instants "i".
std::string to_chrome_trace(const std::vector<TraceEvent>& events);

}  // namespace pmp::obs
