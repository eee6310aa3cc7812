// The flight recorder: a second bounded ring for post-mortems.
//
// The main TraceBuffer is a diagnostic window — exporters read it while
// the system is healthy. The flight recorder models the black box: it
// passively mirrors every event the global trace ring records into its
// own (smaller) ring, and the moment something dies — midas::Supervisor
// cutting a node's power, the adaptation service quarantining an
// extension — the tail is *dumped*: frozen into a named Dump that
// eviction can no longer touch.
//
// Durability is split the way real black boxes split it: a quarantine
// happens while the node is alive, so the receiver journals its dump
// alongside the rest of its durable state (midas::ReceiverDurableState)
// and a restart recovers it — the post-mortem survives the power cord. A
// crash-restart gives no such opportunity (power first, then nothing);
// there the supervisor reads the chip at the moment of impact, so the
// dump survives the *node* but lives in supervisor memory, not a journal.
//
// Mirroring is lazy. The root TraceBuffer keeps the recent past anyway, so
// the black box copies from it only when it must: when a tail is read or
// dumped, when the root ring is cleared, and when the root ring is about
// to overwrite an event the black box has not copied yet (once per ring's
// worth of events). Recording an event therefore costs the black box
// nothing, and what it holds is exactly what an eager copy of every event
// would hold. Reading the root ring from a dumping shard worker is safe
// for the same reason the root ring needs no lock: its owner (the
// coordinator) is parked at the window barrier while workers run.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/time.h"
#include "obs/trace.h"

namespace pmp::obs {

class FlightRecorder {
public:
    static constexpr std::size_t kCapacity = 256;

    static FlightRecorder& global();

    /// Retained tail, oldest first.
    std::vector<TraceEvent> tail();

    /// One frozen post-mortem: who died, why, when, and the event tail
    /// leading up to it.
    struct Dump {
        std::string node;    ///< label of the dying node (or "" for global)
        std::string reason;  ///< e.g. "crash", "quarantine:hall/rogue"
        SimTime at;
        std::vector<TraceEvent> events;
    };

    /// Freeze the current tail. Dumps are kept newest-last, bounded at
    /// kMaxDumps (oldest forgotten first).
    const Dump& dump(std::string node, std::string reason, SimTime at);

    const std::vector<Dump>& dumps() const { return dumps_; }

    /// Forget retained events and dumps (tests).
    void clear();

    static constexpr std::size_t kMaxDumps = 32;

private:
    friend class TraceBuffer;
    FlightRecorder() : ring_(kCapacity) {}

    /// Copy the root ring's events recorded since the last catch-up.
    void catch_up();
    /// The root ring is about to be cleared: keep what it holds, then
    /// count its events from zero again.
    void root_cleared();
    void catch_up_locked();
    std::vector<TraceEvent> tail_locked() const;

    /// Crashes and quarantines can fire from any shard worker; the black
    /// box is one shared ring, so it locks (it is never on a hot path).
    std::mutex mu_;
    std::vector<EventRecord> ring_;  ///< rendered only by tail() and dump()
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint64_t mirrored_ = 0;  ///< root events recorded() up to here are copied
    std::vector<Dump> dumps_;
};

}  // namespace pmp::obs
