#ifndef TB_PERFBENCH_VIRTUAL_TIME_H_
#define TB_PERFBENCH_VIRTUAL_TIME_H_

/**
 * @file
 * The virtual-time layers on fixed inputs: sim::SimHarness (four apps
 * on 4 simulated cores), queueing::simulateMgn on the service samples
 * SimHarness produced, core::buildRunResult on its timings, and
 * sim::measureTraceMpki for all eight apps. No real-time code runs
 * here, and every output is a pure function of the seed, so the layers
 * are gated exactly: a digest of all outputs must match the golden for
 * the default seed, repeated calls must give the same outputs, and for
 * every seed the structural MPKI must land within +-25% of the Table I
 * targets (or 0.15 MPKI, for tiny ones).
 *
 * Work is handed out one app at a time, so a run can spread repeated
 * calls over its whole length. Times are the calling thread's CPU
 * time: on a shared host the guest charges no thread for the slices
 * the hypervisor steals. It still runs slower or faster for minutes
 * at a time (another tenant on the sibling hyperthread or in the
 * shared cache), so referenceSeconds() gauges the host's speed with a
 * fixed computation of its own, run beside the calls.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/common/app.h"

namespace tb::perfbench {

/** Seed whose output digest is recorded as the golden. */
inline constexpr uint64_t kDefaultSeed = 42;

/** Median referenceSeconds() over an untraced benchmark run, where it
 * runs between the real-time phases, on the host the benchmark was
 * tuned on (4 vCPUs, x86-64, Release build) in a quiet period. */
inline constexpr double kReferenceNominalSeconds = 0.0115;

/**
 * Thread CPU seconds of a fixed computation that does no repository
 * work: pseudo-random read-modify-writes over 8 MB mixed with integer
 * hashing, the kind of work the cache and event simulations do. The
 * host slows it as it slows them.
 */
double referenceSeconds();

/** Named pass/fail checks on one call's outputs. */
struct Checks {
    uint64_t run = 0;
    std::vector<std::string> failed;

    void
    expect(bool ok, const std::string& what)
    {
        run++;
        if (!ok)
            failed.push_back(what);
    }
};

/** One simulated app through SimHarness, simulateMgn and buildRunResult. */
struct SimSample {
    double simSeconds = 0.0;  // thread CPU seconds, each call
    double mgnSeconds = 0.0;
    double buildSeconds = 0.0;
    uint64_t requests = 0;       // simulated by each of SimHarness, M/G/n
    uint64_t buildRequests = 0;  // timings fed to buildRunResult
    uint64_t digest = 0;
    Checks checks;
};

/** One app through measureTraceMpki. */
struct TraceSample {
    double seconds = 0.0;  // thread CPU seconds
    uint64_t kinstr = 0;   // simulated warmup + measured
    int iterations = 0;    // calibration iterations
    uint64_t digest = 0;
    Checks checks;
};

class VirtualTime {
  public:
    explicit VirtualTime(uint64_t seed);

    size_t simApps() const { return sim_apps_.size(); }
    size_t traceApps() const { return all_apps_.size(); }

    SimSample simulate(size_t app) const;
    TraceSample trace(size_t app) const;

    /** Digest of every output: one digest per app, in app order. */
    static uint64_t combine(const std::vector<uint64_t>& simDigests,
                            const std::vector<uint64_t>& traceDigests);

    /** Checks a combined digest against the golden (default seed only;
     * other seeds have none). */
    void checkGolden(uint64_t digest, Checks& checks) const;

  private:
    uint64_t seed_;
    std::vector<std::unique_ptr<apps::App>> sim_apps_;
    std::vector<std::unique_ptr<apps::App>> all_apps_;
};

}  // namespace tb::perfbench

#endif  // TB_PERFBENCH_VIRTUAL_TIME_H_
