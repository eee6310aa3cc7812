#include "tspace/remote.h"

#include "common/log.h"

namespace pmp::tspace {

using rt::Dict;
using rt::List;
using rt::TypeKind;
using rt::Value;

namespace {
/// The shape of an extension tuple: ["midas.ext", name, version, sealed].
Template extension_template() {
    return Template{Field::eq(Value{"midas.ext"}), Field::of_type(TypeKind::kStr),
                    Field::of_type(TypeKind::kInt), Field::of_type(TypeKind::kBlob)};
}
}  // namespace

// ------------------------------------------------------ TupleSpaceHost ----

TupleSpaceHost::TupleSpaceHost(rt::RpcEndpoint& rpc, disco::Registrar& registrar,
                               TupleSpace& space)
    : rpc_(rpc), space_(space) {
    auto& runtime = rpc_.runtime();
    if (!runtime.find_type("TupleSpace")) {
        auto found_reply = [](std::optional<List> hit) {
            Dict out{{"found", Value{hit.has_value()}}};
            if (hit) out.set("tuple", Value{std::move(*hit)});
            return Value{std::move(out)};
        };
        auto type =
            rt::TypeInfo::Builder("TupleSpace")
                .method("out", TypeKind::kInt,
                        {{"tuple", TypeKind::kList}, {"ttl_ms", TypeKind::kInt}},
                        [this](rt::ServiceObject&, List& args) -> Value {
                            Duration ttl = args[1].as_int() <= 0
                                               ? Duration::max()
                                               : milliseconds(args[1].as_int());
                            return Value{static_cast<std::int64_t>(
                                space_.out(args[0].as_list(), ttl))};
                        })
                .method("rdp", TypeKind::kDict, {{"template", TypeKind::kList}},
                        [this, found_reply](rt::ServiceObject&, List& args) -> Value {
                            return found_reply(space_.rdp(Template::from_value(args[0])));
                        })
                .method("inp", TypeKind::kDict, {{"template", TypeKind::kList}},
                        [this, found_reply](rt::ServiceObject&, List& args) -> Value {
                            return found_reply(space_.inp(Template::from_value(args[0])));
                        })
                .method("rda", TypeKind::kList, {{"template", TypeKind::kList}},
                        [this](rt::ServiceObject&, List& args) -> Value {
                            List out;
                            for (List& tuple :
                                 space_.rda(Template::from_value(args[0]))) {
                                out.push_back(Value{std::move(tuple)});
                            }
                            return Value{std::move(out)};
                        })
                .method("count", TypeKind::kInt, {},
                        [this](rt::ServiceObject&, List&) -> Value {
                            return Value{static_cast<std::int64_t>(space_.size())};
                        })
                .method("notify", TypeKind::kDict,
                        {{"template", TypeKind::kList},
                         {"listener", TypeKind::kStr},
                         {"duration_ms", TypeKind::kInt}},
                        [this](rt::ServiceObject&, List& args) -> Value {
                            return do_notify(rpc_.current_caller(),
                                             Template::from_value(args[0]),
                                             args[1].as_str(), args[2].as_int());
                        })
                .build();
        runtime.register_type(type);
    }
    self_object_ = runtime.create("TupleSpace", "tspace");
    rpc_.export_object("tspace");
    // The control plane of tuple distribution is the space itself; exempt
    // it from application wire filters like the rest of the control plane.
    rpc_.exempt_from_filters("tspace");

    // Advertise at the co-located registrar so roaming devices find the
    // space; host and registrar share fate, so no lease is needed.
    registrar.register_permanent("tspace", Dict{});

    sweep_timer_ = rpc_.router().simulator().schedule_every(milliseconds(500),
                                                            [this]() { sweep(); });
}

TupleSpaceHost::~TupleSpaceHost() {
    rpc_.router().simulator().cancel(sweep_timer_);
    for (auto& [_, sub] : subs_) space_.cancel_wait(sub.notify_id);
}

rt::Value TupleSpaceHost::do_notify(NodeId watcher, const Template& tmpl,
                                    const std::string& listener,
                                    std::int64_t duration_ms) {
    if (!watcher.valid()) watcher = rpc_.router().self();
    Duration granted = duration_ms <= 0 ? seconds(10) : milliseconds(duration_ms);
    if (granted > seconds(60)) granted = seconds(60);

    // Re-subscription from the same watcher+listener renews instead of
    // duplicating.
    for (auto& [id, sub] : subs_) {
        if (sub.watcher == watcher && sub.listener == listener) {
            sub.expires = rpc_.router().simulator().now() + granted;
            Dict out{{"watch", Value{static_cast<std::int64_t>(id)}},
                     {"duration_ms", Value{granted.count() / 1'000'000}}};
            return Value{std::move(out)};
        }
    }

    std::uint64_t id = ++next_sub_;
    Subscription sub;
    sub.watcher = watcher;
    sub.listener = listener;
    sub.expires = rpc_.router().simulator().now() + granted;
    sub.notify_id = space_.notify(tmpl, [this, watcher, listener](const List& tuple) {
        rpc_.call_async(watcher, listener, "notify", {Value{tuple}},
                        [](Value, std::exception_ptr) {});
    });
    subs_.emplace(id, std::move(sub));
    Dict out{{"watch", Value{static_cast<std::int64_t>(id)}},
             {"duration_ms", Value{granted.count() / 1'000'000}}};
    return Value{std::move(out)};
}

void TupleSpaceHost::sweep() {
    SimTime now = rpc_.router().simulator().now();
    for (auto it = subs_.begin(); it != subs_.end();) {
        if (it->second.expires <= now) {
            space_.cancel_wait(it->second.notify_id);
            it = subs_.erase(it);
        } else {
            ++it;
        }
    }
}

// ------------------------------------------------- TupleSpacePublisher ----

TupleSpacePublisher::TupleSpacePublisher(sim::Simulator& sim, TupleSpace& space,
                                         const crypto::KeyStore& keys, std::string issuer,
                                         Duration ttl)
    : sim_(sim), space_(space), keys_(keys), issuer_(std::move(issuer)), ttl_(ttl) {
    republish_timer_ = sim_.schedule_every(ttl_ / 2, [this]() { republish_all(); });
}

TupleSpacePublisher::~TupleSpacePublisher() { sim_.cancel(republish_timer_); }

void TupleSpacePublisher::publish(midas::ExtensionPackage pkg) {
    auto& last = last_version_[pkg.name];
    if (pkg.version <= last) pkg.version = last + 1;
    last = pkg.version;

    Published entry;
    entry.sealed = pkg.seal(keys_, issuer_);
    entry.version = pkg.version;
    entry.tuple = space_.out(
        List{Value{"midas.ext"}, Value{pkg.name},
             Value{static_cast<std::int64_t>(pkg.version)}, Value{entry.sealed}},
        ttl_);

    if (auto it = published_.find(pkg.name); it != published_.end()) {
        space_.remove(it->second.tuple);  // retract the superseded tuple
    }
    published_[pkg.name] = std::move(entry);
}

void TupleSpacePublisher::retract(const std::string& name) {
    auto it = published_.find(name);
    if (it == published_.end()) return;
    space_.remove(it->second.tuple);
    published_.erase(it);
}

void TupleSpacePublisher::republish_all() {
    for (auto& [name, entry] : published_) {
        space_.remove(entry.tuple);
        entry.tuple = space_.out(
            List{Value{"midas.ext"}, Value{name},
                 Value{static_cast<std::int64_t>(entry.version)}, Value{entry.sealed}},
            ttl_);
    }
}

// ---------------------------------------------------- TupleSpacePuller ----

TupleSpacePuller::TupleSpacePuller(disco::DiscoveryClient& discovery,
                                   midas::AdaptationService& receiver, Duration poll_period,
                                   Mode mode)
    : discovery_(discovery),
      receiver_(receiver),
      poll_period_(poll_period),
      lease_(poll_period * 2),
      mode_(mode) {
    poll_timer_ = discovery_.rpc().router().simulator().schedule_every(
        poll_period_, [this]() {
            if (mode_ == Mode::kPoll) {
                poll();
            } else {
                subscribe_tick();
            }
        });
}

TupleSpacePuller::~TupleSpacePuller() {
    *alive_ = false;
    discovery_.rpc().router().simulator().cancel(poll_timer_);
}

namespace {
/// Per-listener-object state: the puller's callback plus the endpoint used
/// to recover the sending host's identity. Kept in object state (not
/// captured in the type's handler) so several pullers — including ones
/// created after an earlier one died — can each own a listener safely.
struct TupleListenerState {
    rt::RpcEndpoint* rpc = nullptr;
    std::function<void(NodeId, const List&)> fn;
};
}  // namespace

std::string TupleSpacePuller::ensure_listener() {
    if (!listener_name_.empty()) return listener_name_;
    auto& runtime = discovery_.rpc().runtime();
    if (!runtime.find_type("TupleListener")) {
        runtime.register_type(
            rt::TypeInfo::Builder("TupleListener")
                .method("notify", TypeKind::kVoid, {{"tuple", TypeKind::kList}},
                        [](rt::ServiceObject& self, List& args) -> Value {
                            auto& state = self.state<TupleListenerState>();
                            state.fn(state.rpc->current_caller(), args[0].as_list());
                            return Value{};
                        })
                .build());
    }
    // Unique per puller instance.
    for (int i = 1;; ++i) {
        std::string name = "tspace.listener:" + std::to_string(i);
        if (!runtime.find_object(name)) {
            listener_name_ = name;
            break;
        }
    }
    auto listener = runtime.create("TupleListener", listener_name_);
    auto& state = listener->emplace_state<TupleListenerState>();
    state.rpc = &discovery_.rpc();
    std::weak_ptr<bool> alive = alive_;
    state.fn = [this, alive](NodeId host, const List& tuple) {
        if (alive.expired()) return;
        ++stats_.notifications;
        handle_tuple(host, tuple);
    };
    discovery_.rpc().export_object(listener_name_);
    discovery_.rpc().exempt_from_filters("tspace.listener:");
    return listener_name_;
}

void TupleSpacePuller::subscribe_tick() {
    ++stats_.polls;  // counts control rounds in either mode
    Value tmpl = extension_template().to_value();
    std::string listener = ensure_listener();
    SimTime now = discovery_.rpc().router().simulator().now();
    std::int64_t want_ms = (poll_period_ * 4).count() / 1'000'000;

    std::weak_ptr<bool> alive = alive_;
    for (NodeId registrar : discovery_.registrars()) {
        discovery_.lookup(
            registrar, "tspace",
            [this, tmpl, listener, now, want_ms,
             alive](std::vector<disco::ServiceItem> items, std::exception_ptr error) {
                if (error || alive.expired()) return;
                for (const disco::ServiceItem& item : items) {
                    NodeId host = item.provider;
                    auto it = subscribed_until_.find(host);
                    // Renew at half the subscription lease.
                    if (it != subscribed_until_.end() &&
                        it->second > now + poll_period_ * 2) {
                        continue;
                    }
                    bool fresh = it == subscribed_until_.end();
                    discovery_.rpc().call_async(
                        host, "tspace", "notify", {tmpl, Value{listener}, Value{want_ms}},
                        [this, alive, host, now, want_ms](Value, std::exception_ptr err) {
                            if (err || alive.expired()) return;
                            subscribed_until_[host] = now + milliseconds(want_ms);
                        });
                    if (fresh) {
                        // Catch up on tuples already in the space (notify
                        // only covers future outs).
                        discovery_.rpc().call_async(
                            host, "tspace", "rda", {tmpl},
                            [this, alive, host](Value result, std::exception_ptr err) {
                                if (err || alive.expired()) return;
                                for (const Value& tuple : result.as_list()) {
                                    handle_tuple(host, tuple.as_list());
                                }
                            });
                    }
                }
            });
    }
}

void TupleSpacePuller::poll() {
    ++stats_.polls;
    Value tmpl = extension_template().to_value();
    std::weak_ptr<bool> alive = alive_;
    for (NodeId registrar : discovery_.registrars()) {
        discovery_.lookup(
            registrar, "tspace",
            [this, tmpl, alive](std::vector<disco::ServiceItem> items,
                                std::exception_ptr error) {
                if (error || alive.expired()) return;
                for (const disco::ServiceItem& item : items) {
                    discovery_.rpc().call_async(
                        item.provider, "tspace", "rda", {tmpl},
                        [this, alive, host = item.provider](Value result,
                                                            std::exception_ptr err) {
                            if (err || alive.expired()) return;
                            for (const Value& tuple : result.as_list()) {
                                handle_tuple(host, tuple.as_list());
                            }
                        });
                }
            });
    }
}

void TupleSpacePuller::handle_tuple(NodeId host, const List& tuple) {
    ++stats_.tuples_seen;
    const std::string& name = tuple[1].as_str();
    const Bytes& sealed = tuple[3].as_blob();
    std::int64_t lease_ms = lease_.count() / 1'000'000;

    // Already running? Refresh its lease (the pull-model keep-alive). If
    // the version in the space is newer, install_from replaces it.
    auto it = installed_.find(name);
    if (it != installed_.end()) {
        std::int64_t version = tuple[2].as_int();
        bool current = false;
        for (const auto& inst : receiver_.installed()) {
            if (inst.name == name &&
                static_cast<std::int64_t>(inst.version) >= version) {
                current = true;
                break;
            }
        }
        if (current) {
            receiver_.keepalive_local(it->second, lease_ms);
            return;
        }
    }

    try {
        Value result = receiver_.install_from(host, sealed, lease_ms);
        installed_[name] =
            static_cast<std::uint64_t>(result.as_dict().at("ext").as_int());
        ++stats_.installs;
    } catch (const Error& e) {
        log_warn(discovery_.rpc().router().simulator().now(), "tspace.pull",
                 "install of '", name, "' failed: ", e.what());
    }
}

}  // namespace pmp::tspace
