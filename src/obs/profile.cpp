#include "obs/profile.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace pmp::obs {

std::vector<ExtensionCost> attribution_from(const Snapshot& snap) {
    std::map<std::string, ExtensionCost> by_ext;
    auto split = [](const std::string& label) {
        auto bar = label.find('|');
        return std::pair<std::string, std::string>{label.substr(0, bar),
                                                   bar == std::string::npos
                                                       ? std::string{}
                                                       : label.substr(bar + 1)};
    };
    std::map<std::string, std::uint64_t> calls;
    for (const CounterSample& c : snap.counters) {
        if (c.name == "profile.advice_calls") calls[c.label] = c.value;
    }
    for (const HistogramSample& h : snap.histograms) {
        if (h.name != "profile.advice_ns") continue;
        auto [ext, pointcut] = split(h.label);
        auto n = calls.find(h.label);
        const std::uint64_t invocations = n == calls.end() ? h.count : n->second;
        const double total_ns =
            h.count == 0 ? 0.0
                         : h.sum / static_cast<double>(h.count) * static_cast<double>(invocations);
        ExtensionCost& cost = by_ext[ext];
        cost.extension = ext;
        cost.invocations += invocations;
        cost.total_ns += total_ns;
        cost.sites.push_back(SiteCost{ext, pointcut, invocations, total_ns, h.p95});
    }
    for (const CounterSample& c : snap.counters) {
        if (c.name != "profile.steps") continue;
        ExtensionCost& cost = by_ext[c.label];
        cost.extension = c.label;
        cost.steps += c.value;
    }
    std::vector<ExtensionCost> out;
    out.reserve(by_ext.size());
    for (auto& [_, cost] : by_ext) {
        std::sort(cost.sites.begin(), cost.sites.end(),
                  [](const SiteCost& a, const SiteCost& b) { return a.total_ns > b.total_ns; });
        out.push_back(std::move(cost));
    }
    std::sort(out.begin(), out.end(), [](const ExtensionCost& a, const ExtensionCost& b) {
        return a.total_ns > b.total_ns;
    });
    return out;
}

// ------------------------------------------------------------- trees ----

std::vector<TraceTree> build_trace_trees(const std::vector<TraceEvent>& events) {
    // trace id -> (span id -> index into that tree's spans).
    std::map<std::uint64_t, TraceTree> trees;
    std::map<std::uint64_t, std::map<std::uint64_t, std::size_t>> index;

    for (const TraceEvent& ev : events) {
        if (ev.trace == 0) continue;
        TraceTree& tree = trees[ev.trace];
        tree.trace_id = ev.trace;
        switch (ev.kind) {
            case EventKind::kSpanBegin: {
                SpanNode node;
                node.span = ev.span;
                node.parent = ev.parent;
                node.trace = ev.trace;
                node.begin = ev.at;
                node.component = ev.component;
                node.name = ev.name;
                node.kv = ev.kv;
                index[ev.trace][ev.span] = tree.spans.size();
                tree.spans.push_back(std::move(node));
                break;
            }
            case EventKind::kSpanEnd: {
                auto& spans = index[ev.trace];
                auto it = spans.find(ev.span);
                if (it == spans.end()) break;  // begin evicted: orphan end
                SpanNode& node = tree.spans[it->second];
                node.end = ev.at;
                node.ended = true;
                node.kv.insert(node.kv.end(), ev.kv.begin(), ev.kv.end());
                break;
            }
            case EventKind::kInstant:
                tree.instants.push_back(
                    TreeInstant{ev.at, ev.parent, ev.component, ev.name, ev.kv});
                break;
        }
    }

    std::vector<TraceTree> out;
    out.reserve(trees.size());
    for (auto& [trace_id, tree] : trees) {
        // Spans arrive in begin order; sort by span id for a stable shape
        // independent of interleaving, then link children.
        std::vector<std::size_t> order(tree.spans.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            return tree.spans[a].span < tree.spans[b].span;
        });
        TraceTree sorted;
        sorted.trace_id = tree.trace_id;
        sorted.instants = std::move(tree.instants);
        std::map<std::uint64_t, std::size_t> at;
        for (std::size_t i : order) {
            at[tree.spans[i].span] = sorted.spans.size();
            sorted.spans.push_back(std::move(tree.spans[i]));
        }
        for (std::size_t i = 0; i < sorted.spans.size(); ++i) {
            SpanNode& node = sorted.spans[i];
            auto parent = node.parent ? at.find(node.parent) : at.end();
            if (parent != at.end()) {
                sorted.spans[parent->second].children.push_back(i);
            } else {
                sorted.roots.push_back(i);
            }
        }
        out.push_back(std::move(sorted));
    }
    return out;
}

namespace {

std::string fmt_ms(Duration d) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.3fms", static_cast<double>(d.count()) / 1e6);
    return buf;
}

std::string fmt_at(SimTime t) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.3fms", static_cast<double>(t.ns) / 1e6);
    return buf;
}

void render_span(const TraceTree& tree, std::size_t idx, int depth, std::ostringstream& out) {
    const SpanNode& node = tree.spans[idx];
    for (int i = 0; i < depth; ++i) out << "  ";
    out << "#" << node.span << " " << node.component << " " << node.name << " [at "
        << fmt_at(node.begin);
    if (node.ended) {
        out << " +" << fmt_ms(node.duration());
    } else {
        out << " unfinished";
    }
    out << "]";
    for (const auto& [k, v] : node.kv) out << " " << k << "=" << v;
    out << "\n";
    // Instants caused by this span, in recording order.
    for (const TreeInstant& inst : tree.instants) {
        if (inst.parent != node.span) continue;
        for (int i = 0; i < depth + 1; ++i) out << "  ";
        out << "· " << inst.component << " " << inst.name << " [at " << fmt_at(inst.at) << "]";
        for (const auto& [k, v] : inst.kv) out << " " << k << "=" << v;
        out << "\n";
    }
    for (std::size_t child : node.children) render_span(tree, child, depth + 1, out);
}

}  // namespace

std::string render_tree(const TraceTree& tree) {
    std::ostringstream out;
    out << "trace " << tree.trace_id << " (" << tree.spans.size() << " spans, "
        << tree.instants.size() << " instants)\n";
    for (std::size_t root : tree.roots) render_span(tree, root, 1, out);
    for (const TreeInstant& inst : tree.instants) {
        if (inst.parent != 0) continue;
        out << "  · " << inst.component << " " << inst.name << " [at " << fmt_at(inst.at) << "]";
        for (const auto& [k, v] : inst.kv) out << " " << k << "=" << v;
        out << "\n";
    }
    return out.str();
}

std::vector<CriticalHop> critical_path(const TraceTree& tree) {
    std::vector<CriticalHop> out;
    // Start from the longest finished root: the span that bounded the
    // whole trace.
    const SpanNode* current = nullptr;
    for (std::size_t root : tree.roots) {
        const SpanNode& node = tree.spans[root];
        if (!node.ended) continue;
        if (!current || node.duration() > current->duration()) current = &node;
    }
    while (current) {
        // The child that finished last is the one the parent waited for.
        const SpanNode* next = nullptr;
        for (std::size_t child : current->children) {
            const SpanNode& node = tree.spans[child];
            if (!node.ended) continue;
            if (!next || node.end > next->end) next = &node;
        }
        Duration self = current->duration();
        if (next && next->duration() < self) self = self - next->duration();
        else if (next) self = Duration{0};
        out.push_back(
            CriticalHop{current->span, current->component, current->name,
                        current->duration(), self});
        current = next;
    }
    return out;
}

// ------------------------------------------------------ chrome export ----

namespace {

void chrome_string(std::ostringstream& out, const std::string& s) {
    out << '"';
    for (char ch : s) {
        switch (ch) {
            case '"': out << "\\\""; break;
            case '\\': out << "\\\\"; break;
            case '\n': out << "\\n"; break;
            case '\t': out << "\\t"; break;
            case '\r': out << "\\r"; break;
            default:
                if (static_cast<unsigned char>(ch) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
                    out << buf;
                } else {
                    out << ch;
                }
        }
    }
    out << '"';
}

void chrome_args(std::ostringstream& out, const KeyValues& kv) {
    out << "\"args\":{";
    for (std::size_t i = 0; i < kv.size(); ++i) {
        if (i) out << ',';
        chrome_string(out, kv[i].first);
        out << ':';
        chrome_string(out, kv[i].second);
    }
    out << '}';
}

double us(SimTime t) { return static_cast<double>(t.ns) / 1e3; }

}  // namespace

std::string to_chrome_trace(const std::vector<TraceEvent>& events) {
    std::vector<TraceTree> trees = build_trace_trees(events);
    std::ostringstream out;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&]() {
        if (!first) out << ',';
        first = false;
    };
    for (const TraceTree& tree : trees) {
        sep();
        out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << tree.trace_id
            << ",\"tid\":0,\"args\":{\"name\":\"trace " << tree.trace_id << "\"}}";
        for (const SpanNode& node : tree.spans) {
            sep();
            // One lane (tid) per span: sibling spans may overlap in time
            // (concurrent rpcs of one trace), which a shared lane would
            // render as a malformed stack.
            out << "{\"ph\":\"X\",\"pid\":" << tree.trace_id << ",\"tid\":" << node.span
                << ",\"ts\":" << us(node.begin) << ",\"dur\":"
                << (node.ended ? us(node.end) - us(node.begin) : 0.0) << ",\"name\":";
            chrome_string(out, node.name);
            out << ",\"cat\":";
            chrome_string(out, node.component);
            out << ',';
            chrome_args(out, node.kv);
            out << '}';
        }
        for (const TreeInstant& inst : tree.instants) {
            sep();
            out << "{\"ph\":\"i\",\"s\":\"p\",\"pid\":" << tree.trace_id
                << ",\"tid\":" << inst.parent << ",\"ts\":" << us(inst.at) << ",\"name\":";
            chrome_string(out, inst.name);
            out << ",\"cat\":";
            chrome_string(out, inst.component);
            out << ',';
            chrome_args(out, inst.kv);
            out << '}';
        }
    }
    out << "]}";
    return out.str();
}

}  // namespace pmp::obs
