#include "obs/flight.h"

#include <algorithm>
#include <utility>

namespace pmp::obs {

FlightRecorder& FlightRecorder::global() {
    static FlightRecorder recorder;
    return recorder;
}

void FlightRecorder::catch_up() {
    std::lock_guard<std::mutex> lock(mu_);
    catch_up_locked();
}

void FlightRecorder::root_cleared() {
    std::lock_guard<std::mutex> lock(mu_);
    catch_up_locked();
    mirrored_ = 0;
}

void FlightRecorder::catch_up_locked() {
    const TraceBuffer& root = TraceBuffer::root();
    const std::size_t cap = root.ring_.size();
    // Only the newest kCapacity events can survive in the black box, and
    // the root ring still holds every event not yet copied (it forces a
    // catch-up before overwriting one).
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>({root.recorded_ - mirrored_, root.size_, ring_.size()}));
    std::size_t at = (root.head_ + cap - n) % cap;
    for (std::size_t i = 0; i < n; ++i) {
        ring_[head_] = root.ring_[at];
        if (++head_ == ring_.size()) head_ = 0;
        if (size_ < ring_.size()) ++size_;
        if (++at == cap) at = 0;
    }
    mirrored_ = root.recorded_;
}

std::vector<TraceEvent> FlightRecorder::tail() {
    std::lock_guard<std::mutex> lock(mu_);
    catch_up_locked();
    return tail_locked();
}

std::vector<TraceEvent> FlightRecorder::tail_locked() const {
    std::vector<TraceEvent> out;
    out.reserve(size_);
    std::size_t start = size_ == ring_.size() ? head_ : 0;
    for (std::size_t i = 0; i < size_; ++i) {
        out.push_back(ring_[(start + i) % ring_.size()].render());
    }
    return out;
}

const FlightRecorder::Dump& FlightRecorder::dump(std::string node, std::string reason,
                                                 SimTime at) {
    std::lock_guard<std::mutex> lock(mu_);
    catch_up_locked();
    if (dumps_.size() >= kMaxDumps) dumps_.erase(dumps_.begin());
    dumps_.push_back(Dump{std::move(node), std::move(reason), at, tail_locked()});
    return dumps_.back();
}

void FlightRecorder::clear() {
    std::lock_guard<std::mutex> lock(mu_);
    head_ = 0;
    size_ = 0;
    mirrored_ = TraceBuffer::root().recorded_;
    dumps_.clear();
}

}  // namespace pmp::obs
