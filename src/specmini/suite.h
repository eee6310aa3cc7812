// specmini: a SPECjvm98-flavoured synthetic workload suite (DESIGN.md E3).
//
// The paper measures the cost of carrying the adaptation platform — hooks
// present but no extensions woven — as ~7% on SPECjvm. We reproduce the
// measurement's structure with four kernels in the spirit of the SPECjvm98
// programs (compress, db, raytrace, and a parser in lieu of javac), each
// doing its work through metaobject dispatch so the presence of the minimal
// hook is on the measured path:
//
//   compress — RLE-style compressor fed one byte per call
//   db       — in-memory table: insert / point lookup / range count
//   ray      — ray-sphere intersection arithmetic per call
//   parse    — tokenizer state machine fed one character per call
//
// Each kernel runs in two dispatch modes: kUnhooked (platform absent — the
// baseline) and kHooked (platform active, nothing woven). Benchmarks may
// additionally weave advice through the kernels' types to reproduce the
// do-nothing-extension experiment (E2) at suite level.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "rt/runtime.h"

namespace pmp::specmini {

enum class DispatchMode {
    kUnhooked,  ///< Method::invoke_unhooked — as if PROSE were absent
    kHooked,    ///< Method::invoke — normal platform dispatch
};

struct KernelResult {
    std::string name;
    std::uint64_t calls = 0;     ///< dispatched invocations performed
    std::uint64_t checksum = 0;  ///< mode-independent; guards against DCE and bugs
};

class Suite {
public:
    /// Registers the kernel service classes and creates one instance of
    /// each ("spec.compress", "spec.db", "spec.ray", "spec.parse").
    explicit Suite(rt::Runtime& runtime);

    static const std::vector<std::string>& kernel_names();

    /// Run one kernel at the given scale (roughly `scale` dispatched calls).
    /// Results are deterministic: same kernel+scale => same checksum in
    /// every mode.
    KernelResult run(const std::string& kernel, std::uint64_t scale, DispatchMode mode);

    /// Run all kernels; returns one result per kernel.
    std::vector<KernelResult> run_all(std::uint64_t scale, DispatchMode mode);

private:
    rt::Runtime& runtime_;
    std::shared_ptr<rt::ServiceObject> compress_;
    std::shared_ptr<rt::ServiceObject> db_;
    std::shared_ptr<rt::ServiceObject> ray_;
    std::shared_ptr<rt::ServiceObject> parse_;
};

}  // namespace pmp::specmini
