#include "midas/durable.h"

#include <algorithm>
#include <stdexcept>

namespace pmp::midas {

using rt::Dict;
using rt::List;
using rt::Value;

namespace {

std::int64_t i64(std::uint64_t v) { return static_cast<std::int64_t>(v); }
std::uint64_t u64(const Value& v) { return static_cast<std::uint64_t>(v.as_int()); }

const std::string& str_at(const Dict& d, const char* key) { return d.at(key).as_str(); }

}  // namespace

// ---------------------------------------------------------------- base ----

Value BaseDurableState::rec_epoch(std::uint64_t epoch) {
    return Value{Dict{{"op", Value{"epoch"}}, {"epoch", Value{i64(epoch)}}}};
}

Value BaseDurableState::rec_policy_add(const std::string& name, std::uint32_t version,
                                       const Bytes& sealed) {
    return Value{Dict{{"op", Value{"policy-add"}},
                      {"name", Value{name}},
                      {"version", Value{i64(version)}},
                      {"sealed", Value{sealed}}}};
}

Value BaseDurableState::rec_policy_remove(const std::string& name) {
    return Value{Dict{{"op", Value{"policy-remove"}}, {"name", Value{name}}}};
}

Value BaseDurableState::rec_adapt(std::uint64_t node, const std::string& label,
                                  SimTime since) {
    return Value{Dict{{"op", Value{"adapt"}},
                      {"node", Value{i64(node)}},
                      {"label", Value{label}},
                      {"since_ns", Value{since.ns}}}};
}

Value BaseDurableState::rec_install(std::uint64_t node, const std::string& label,
                                    const std::string& name, std::uint64_t ext) {
    return Value{Dict{{"op", Value{"install"}},
                      {"node", Value{i64(node)}},
                      {"label", Value{label}},
                      {"name", Value{name}},
                      {"ext", Value{i64(ext)}}}};
}

Value BaseDurableState::rec_node_gone(const std::string& label) {
    return Value{Dict{{"op", Value{"node-gone"}}, {"label", Value{label}}}};
}

Value BaseDurableState::rec_event(const std::string& source, SimTime at,
                                  const rt::Value& data) {
    return Value{Dict{{"op", Value{"event"}},
                      {"source", Value{source}},
                      {"at_ns", Value{at.ns}},
                      {"data", data}}};
}

namespace {

Value encode_rollout(const BaseDurableState::RolloutEntry& r) {
    List stages;
    for (std::uint32_t bp : r.stages_bp) stages.push_back(Value{i64(bp)});
    return Value{Dict{{"name", Value{r.name}},
                      {"version", Value{i64(r.version)}},
                      {"sealed", Value{r.sealed}},
                      {"incumbent", Value{i64(r.incumbent_version)}},
                      {"stages_bp", Value{std::move(stages)}},
                      {"stage", Value{i64(r.stage)}},
                      {"status", Value{static_cast<std::int64_t>(r.status)}},
                      {"cause", Value{r.abort_cause}}}};
}

BaseDurableState::RolloutEntry decode_rollout(const Dict& d) {
    BaseDurableState::RolloutEntry r;
    r.name = str_at(d, "name");
    r.version = static_cast<std::uint32_t>(d.at("version").as_int());
    r.sealed = d.at("sealed").as_blob();
    r.incumbent_version = static_cast<std::uint32_t>(d.at("incumbent").as_int());
    for (const Value& s : d.at("stages_bp").as_list()) {
        r.stages_bp.push_back(static_cast<std::uint32_t>(s.as_int()));
    }
    r.stage = static_cast<std::uint32_t>(d.at("stage").as_int());
    r.status = static_cast<int>(d.at("status").as_int());
    r.abort_cause = str_at(d, "cause");
    return r;
}

}  // namespace

Value BaseDurableState::rec_rollout_begin(const RolloutEntry& entry) {
    Value v = encode_rollout(entry);
    Dict d = v.as_dict();
    d.set("op", Value{"rollout-begin"});
    return Value{std::move(d)};
}

Value BaseDurableState::rec_rollout_stage(const std::string& name, std::uint32_t stage) {
    return Value{Dict{{"op", Value{"rollout-stage"}},
                      {"name", Value{name}},
                      {"stage", Value{i64(stage)}}}};
}

Value BaseDurableState::rec_rollout_abort(const std::string& name,
                                          const std::string& cause) {
    return Value{Dict{{"op", Value{"rollout-abort"}},
                      {"name", Value{name}},
                      {"cause", Value{cause}}}};
}

Value BaseDurableState::rec_rollout_complete(const std::string& name) {
    return Value{Dict{{"op", Value{"rollout-complete"}}, {"name", Value{name}}}};
}

rt::Value BaseDurableState::to_snapshot(const db::EventStore* hall) const {
    Dict versions;
    for (const auto& [name, v] : last_version) versions.set(name, Value{i64(v)});

    List policy_list;
    for (const auto& [name, sealed] : policies) {
        policy_list.push_back(Value{Dict{{"name", Value{name}}, {"sealed", Value{sealed}}}});
    }

    List book_list;
    for (const auto& [label, entry] : book) {
        Dict installed;
        for (const auto& [name, ext] : entry.installed) installed.set(name, Value{i64(ext)});
        book_list.push_back(Value{Dict{{"node", Value{i64(entry.node)}},
                                       {"label", Value{label}},
                                       {"since_ns", Value{entry.since.ns}},
                                       {"installed", Value{std::move(installed)}}}});
    }

    List event_list;
    auto add_event = [&](const std::string& source, SimTime at, const Value& data) {
        event_list.push_back(Value{Dict{{"source", Value{source}},
                                        {"at_ns", Value{at.ns}},
                                        {"data", data}}});
    };
    if (hall) {
        event_list.reserve(hall->size());
        for (std::uint64_t seq = hall->base_seq() + 1; seq <= hall->base_seq() + hall->size();
             ++seq) {
            const db::Record& rec = hall->at(seq);
            add_event(rec.source, rec.at, rec.data);
        }
    } else {
        for (const Event& ev : events) add_event(ev.source, ev.at, ev.data);
    }

    List rollout_list;
    for (const auto& [_, r] : rollouts) rollout_list.push_back(encode_rollout(r));

    // "rollouts" is a new optional key: pre-rollout replay logic only at()s
    // the keys it knows, so it reads this snapshot unchanged, and the
    // loader below find()s it so old snapshots without the key still load.
    return Value{Dict{{"epoch", Value{i64(epoch)}},
                      {"versions", Value{std::move(versions)}},
                      {"policies", Value{std::move(policy_list)}},
                      {"book", Value{std::move(book_list)}},
                      {"events", Value{std::move(event_list)}},
                      {"rollouts", Value{std::move(rollout_list)}}}};
}

namespace {

void base_load_snapshot(BaseDurableState& st, const Value& snap) {
    const Dict& d = snap.as_dict();
    st.epoch = u64(d.at("epoch"));
    for (const auto& [name, v] : d.at("versions").as_dict()) {
        st.last_version[name] = static_cast<std::uint32_t>(v.as_int());
    }
    for (const Value& p : d.at("policies").as_list()) {
        const Dict& pd = p.as_dict();
        st.policies[str_at(pd, "name")] = pd.at("sealed").as_blob();
    }
    for (const Value& b : d.at("book").as_list()) {
        const Dict& bd = b.as_dict();
        BaseDurableState::BookEntry entry;
        entry.node = u64(bd.at("node"));
        entry.label = str_at(bd, "label");
        entry.since = SimTime{bd.at("since_ns").as_int()};
        for (const auto& [name, ext] : bd.at("installed").as_dict()) {
            entry.installed[name] = u64(ext);
        }
        st.book[entry.label] = std::move(entry);
    }
    for (const Value& e : d.at("events").as_list()) {
        const Dict& ed = e.as_dict();
        st.events.push_back(BaseDurableState::Event{
            str_at(ed, "source"), SimTime{ed.at("at_ns").as_int()}, ed.at("data")});
    }
    // Optional: snapshots written before the rollout controller existed
    // carry no "rollouts" key.
    if (const Value* rl = d.find("rollouts")) {
        for (const Value& r : rl->as_list()) {
            BaseDurableState::RolloutEntry entry = decode_rollout(r.as_dict());
            st.rollouts[entry.name] = std::move(entry);
        }
    }
}

void base_apply(BaseDurableState& st, const Value& rec) {
    const Dict& d = rec.as_dict();
    const std::string& op = str_at(d, "op");
    if (op == "epoch") {
        st.epoch = u64(d.at("epoch"));
    } else if (op == "policy-add") {
        const std::string& name = str_at(d, "name");
        auto version = static_cast<std::uint32_t>(d.at("version").as_int());
        st.policies[name] = d.at("sealed").as_blob();
        auto& last = st.last_version[name];
        if (version > last) last = version;
    } else if (op == "policy-remove") {
        const std::string& name = str_at(d, "name");
        st.policies.erase(name);
        // last_version survives removal so a re-added policy still bumps
        // past what receivers may hold. The revokes sent alongside the
        // removal are implied: drop the name from every book entry.
        for (auto& [_, entry] : st.book) entry.installed.erase(name);
    } else if (op == "adapt") {
        const std::string& label = str_at(d, "label");
        std::uint64_t node = u64(d.at("node"));
        BaseDurableState::BookEntry& entry = st.book[label];
        if (entry.node != node) entry.installed.clear();  // a different device
        entry.node = node;
        entry.label = label;
        entry.since = SimTime{d.at("since_ns").as_int()};
    } else if (op == "install") {
        const std::string& label = str_at(d, "label");
        BaseDurableState::BookEntry& entry = st.book[label];
        entry.label = label;
        entry.node = u64(d.at("node"));
        entry.installed[str_at(d, "name")] = u64(d.at("ext"));
    } else if (op == "node-gone") {
        st.book.erase(str_at(d, "label"));
    } else if (op == "event") {
        st.events.push_back(BaseDurableState::Event{
            str_at(d, "source"), SimTime{d.at("at_ns").as_int()}, d.at("data")});
    } else if (op == "rollout-begin") {
        BaseDurableState::RolloutEntry entry = decode_rollout(d);
        // The canary's version is claimed the moment the rollout begins, so
        // an add_extension after a crash-recovery can never reuse it.
        auto& last = st.last_version[entry.name];
        if (entry.version > last) last = entry.version;
        st.rollouts[entry.name] = std::move(entry);
    } else if (op == "rollout-stage") {
        auto it = st.rollouts.find(str_at(d, "name"));
        if (it != st.rollouts.end()) {
            it->second.stage = static_cast<std::uint32_t>(d.at("stage").as_int());
        }
    } else if (op == "rollout-abort") {
        auto it = st.rollouts.find(str_at(d, "name"));
        if (it != st.rollouts.end()) {
            it->second.status = 1;
            it->second.abort_cause = str_at(d, "cause");
        }
    } else if (op == "rollout-complete") {
        auto it = st.rollouts.find(str_at(d, "name"));
        if (it != st.rollouts.end()) it->second.status = 2;
    } else {
        ++st.skipped_records;
    }
}

}  // namespace

BaseDurableState BaseDurableState::replay(const db::Journal::Restored& restored) {
    BaseDurableState st;
    if (restored.snapshot) {
        try {
            base_load_snapshot(st, *restored.snapshot);
        } catch (const std::exception&) {
            // A snapshot the CRC accepted but the schema does not: start
            // empty and let the WAL contribute what it can.
            st = BaseDurableState{};
            ++st.skipped_records;
        }
    }
    for (const rt::Value& rec : restored.wal) {
        try {
            base_apply(st, rec);
        } catch (const std::exception&) {
            ++st.skipped_records;
        }
    }
    return st;
}

// ------------------------------------------------------------ receiver ----

Value ReceiverDurableState::rec_install(const std::string& name, std::uint32_t version,
                                        const std::string& issuer) {
    return Value{Dict{{"op", Value{"install"}},
                      {"name", Value{name}},
                      {"version", Value{i64(version)}},
                      {"issuer", Value{issuer}}}};
}

Value ReceiverDurableState::rec_withdraw(const std::string& name) {
    return Value{Dict{{"op", Value{"withdraw"}}, {"name", Value{name}}}};
}

Value ReceiverDurableState::rec_quarantine(const std::string& name, std::uint32_t version) {
    return Value{Dict{{"op", Value{"quarantine"}},
                      {"name", Value{name}},
                      {"version", Value{i64(version)}}}};
}

Value ReceiverDurableState::rec_unquarantine(const std::string& name,
                                             std::uint32_t version) {
    return Value{Dict{{"op", Value{"unquarantine"}},
                      {"name", Value{name}},
                      {"version", Value{i64(version)}}}};
}

namespace {

// TraceEvent <-> rt::Value. kv is an ordered list (duplicate keys are
// legal in a trace payload), so it serializes as a list of {k, v} dicts
// rather than a Dict.
Value encode_trace_event(const obs::TraceEvent& ev) {
    List kv;
    for (const auto& [k, v] : ev.kv) {
        kv.push_back(Value{Dict{{"k", Value{k}}, {"v", Value{v}}}});
    }
    return Value{Dict{{"at_ns", Value{ev.at.ns}},
                      {"kind", Value{i64(static_cast<std::uint8_t>(ev.kind))}},
                      {"span", Value{i64(ev.span)}},
                      {"trace", Value{i64(ev.trace)}},
                      {"parent", Value{i64(ev.parent)}},
                      {"comp", Value{ev.component}},
                      {"name", Value{ev.name}},
                      {"kv", Value{std::move(kv)}}}};
}

obs::TraceEvent decode_trace_event(const Value& v) {
    const Dict& d = v.as_dict();
    auto kind_raw = u64(d.at("kind"));
    if (kind_raw > static_cast<std::uint64_t>(obs::EventKind::kInstant)) {
        throw std::runtime_error("flight record: unknown event kind");
    }
    obs::TraceEvent ev;
    ev.at = SimTime{d.at("at_ns").as_int()};
    ev.kind = static_cast<obs::EventKind>(kind_raw);
    ev.span = u64(d.at("span"));
    ev.trace = u64(d.at("trace"));
    ev.parent = u64(d.at("parent"));
    ev.component = str_at(d, "comp");
    ev.name = str_at(d, "name");
    for (const Value& pair : d.at("kv").as_list()) {
        const Dict& pd = pair.as_dict();
        ev.kv.emplace_back(str_at(pd, "k"), str_at(pd, "v"));
    }
    return ev;
}

}  // namespace

Value ReceiverDurableState::rec_flight(const std::string& reason, SimTime at,
                                       const std::vector<obs::TraceEvent>& events) {
    List event_list;
    for (const obs::TraceEvent& ev : events) event_list.push_back(encode_trace_event(ev));
    return Value{Dict{{"op", Value{"flight"}},
                      {"reason", Value{reason}},
                      {"at_ns", Value{at.ns}},
                      {"events", Value{std::move(event_list)}}}};
}

rt::Value ReceiverDurableState::to_snapshot() const {
    List manifest_list;
    for (const ManifestEntry& m : manifest) {
        manifest_list.push_back(Value{Dict{{"name", Value{m.name}},
                                           {"version", Value{i64(m.version)}},
                                           {"issuer", Value{m.issuer}}}});
    }
    List quarantine_list;
    for (const auto& [name, version] : quarantined) {
        quarantine_list.push_back(
            Value{Dict{{"name", Value{name}}, {"version", Value{i64(version)}}}});
    }
    List flight_list;
    for (const FlightDump& f : flights) {
        flight_list.push_back(rec_flight(f.reason, f.at, f.events));
    }
    return Value{Dict{{"manifest", Value{std::move(manifest_list)}},
                      {"quarantined", Value{std::move(quarantine_list)}},
                      {"flights", Value{std::move(flight_list)}}}};
}

namespace {

void receiver_apply_flight(ReceiverDurableState& st, const Dict& d) {
    ReceiverDurableState::FlightDump dump;
    dump.reason = str_at(d, "reason");
    dump.at = SimTime{d.at("at_ns").as_int()};
    for (const Value& ev : d.at("events").as_list()) {
        dump.events.push_back(decode_trace_event(ev));
    }
    st.flights.push_back(std::move(dump));
    while (st.flights.size() > ReceiverDurableState::kMaxFlights) {
        st.flights.erase(st.flights.begin());
    }
}

void receiver_apply(ReceiverDurableState& st, const Value& rec) {
    const Dict& d = rec.as_dict();
    const std::string& op = str_at(d, "op");
    if (op == "install") {
        ReceiverDurableState::ManifestEntry m{str_at(d, "name"),
                                              static_cast<std::uint32_t>(d.at("version").as_int()),
                                              str_at(d, "issuer")};
        std::erase_if(st.manifest, [&](const auto& e) { return e.name == m.name; });
        st.manifest.push_back(std::move(m));
    } else if (op == "withdraw") {
        const std::string& name = str_at(d, "name");
        std::erase_if(st.manifest, [&](const auto& e) { return e.name == name; });
    } else if (op == "quarantine") {
        std::pair<std::string, std::uint32_t> key{
            str_at(d, "name"), static_cast<std::uint32_t>(d.at("version").as_int())};
        if (std::find(st.quarantined.begin(), st.quarantined.end(), key) ==
            st.quarantined.end()) {
            st.quarantined.push_back(std::move(key));
        }
    } else if (op == "unquarantine") {
        std::pair<std::string, std::uint32_t> key{
            str_at(d, "name"), static_cast<std::uint32_t>(d.at("version").as_int())};
        std::erase(st.quarantined, key);
    } else if (op == "flight") {
        receiver_apply_flight(st, d);
    } else {
        ++st.skipped_records;
    }
}

}  // namespace

ReceiverDurableState ReceiverDurableState::replay(const db::Journal::Restored& restored) {
    ReceiverDurableState st;
    if (restored.snapshot) {
        try {
            const Dict& d = restored.snapshot->as_dict();
            for (const Value& m : d.at("manifest").as_list()) {
                const Dict& md = m.as_dict();
                st.manifest.push_back(ReceiverDurableState::ManifestEntry{
                    str_at(md, "name"), static_cast<std::uint32_t>(md.at("version").as_int()),
                    str_at(md, "issuer")});
            }
            for (const Value& q : d.at("quarantined").as_list()) {
                const Dict& qd = q.as_dict();
                st.quarantined.emplace_back(
                    str_at(qd, "name"), static_cast<std::uint32_t>(qd.at("version").as_int()));
            }
            // Older snapshots predate the flight-recorder records.
            if (const Value* fl = d.find("flights")) {
                for (const Value& f : fl->as_list()) {
                    receiver_apply_flight(st, f.as_dict());
                }
            }
        } catch (const std::exception&) {
            st = ReceiverDurableState{};
            ++st.skipped_records;
        }
    }
    for (const rt::Value& rec : restored.wal) {
        try {
            receiver_apply(st, rec);
        } catch (const std::exception&) {
            ++st.skipped_records;
        }
    }
    return st;
}

}  // namespace pmp::midas
