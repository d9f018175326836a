#ifndef TB_PERFBENCH_PHASES_H_
#define TB_PERFBENCH_PHASES_H_

/**
 * @file
 * The real-time phases of a benchmark run: set-up, fixed-rate points
 * and the capacity search. Each point composes the serving stack the
 * way the repository's harnesses do (LoadClient + Transport +
 * ServiceLoop / TcpServer), so the decorators of tracing.h can sit on
 * its seams, and runs it once.
 *
 * The configuration is pinned here, never read from TAILBENCH_*.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/common/app.h"
#include "core/harness.h"
#include "tracing.h"

namespace tb::perfbench {

enum class Path { kIntegrated, kLoopback };

/** Pinned configuration of both real-time workloads. */
struct Pinned {
    static constexpr const char* kApp = "silo";
    static constexpr double kSize = 0.25;
    static constexpr unsigned kWorkers = 2;
    static constexpr unsigned kConnections = 2;  // loopback only
    static constexpr unsigned kReactors = 1;     // loopback only
    static constexpr double kLowQps = 10000.0;
    static constexpr double kHighQps = 50000.0;
    static constexpr int64_t kSloNs = 1000000;
    /** Achieved/offered floor for a capacity rung: below it a backlog
     * grows during the trial. */
    static constexpr double kMinAchieved = 0.98;
    /** Capacity ladder: kLadderBase * kLadderStep^k, k in
     * [kLadderMin, kLadderMax]. The search starts from the base. */
    static constexpr double kLadderBase = 50000.0;
    static constexpr double kLadderStep = 1.05;
    static constexpr int kLadderMin = -20;
    static constexpr int kLadderMax = 40;
    /** Requests per reporting window: the fewest that leave ten samples
     * beyond the window's p99. */
    static constexpr double kWindowRequests = 1000.0;
};

struct PointSpec {
    double qps = 0.0;
    double seconds = 0.0;        // measured span
    double warmupSeconds = 0.0;  // excluded from every statistic
    uint64_t seed = 0;
    /** Keep every measured timing in the result (RunResult::samples). */
    bool keepSamples = false;
};

struct PointResult {
    core::RunResult run;
    uint64_t sent = 0;      // warmup + measured requests
    uint64_t measured = 0;
    /** Measured requests not answered exactly once or mis-stamped;
     * every measured request when the stack could not be built. */
    uint64_t failures = 0;
    double cpuSeconds = 0.0;  // process CPU (all threads) while serving
    /** Scheduled time of the first request (monotonic ns). */
    int64_t firstGenNs = 0;
    /** Client transport construction (connects on loopback), seconds. */
    double connectSeconds = 0.0;
};

/** Test-only faults, switched on by the self-test. */
struct Faults {
    bool dropOneResponse = false;
    bool perturbDigest = false;
};

/** Builds a fresh serving stack on @p path, runs one point through it
 * and tears it down. @p trace, when non-null, wraps the App, Transport
 * and (integrated only) ServerPort in the recording decorators. */
PointResult runPoint(Path path, apps::App& app, const PointSpec& spec,
                     TraceStore* trace, const Faults& faults);

/** Makes and initializes the pinned app. */
std::unique_ptr<apps::App> makePinnedApp(uint64_t seed);

struct SetupSample {
    double seconds = 0.0;         // start .. first scheduled request
    double initSeconds = 0.0;     // App::init
    double connectSeconds = 0.0;  // client transport construction
    PointResult probe;            // the short point that ends set-up
};

/** One complete set-up from nothing: app init, server bind/start,
 * connects, then a short low-rate point whose first scheduled request
 * ends the set-up interval. @p app receives the initialized app. */
SetupSample measureSetup(Path path, uint64_t seed, const Faults& faults,
                         std::unique_ptr<apps::App>& app);

/**
 * The capacity search: the highest rung of a fixed ladder whose trial
 * keeps up (achieved >= kMinAchieved * offered, every request answered)
 * and meets the SLO in its median window: a stall blows the p99 of the
 * windows it hits, while past the knee the backlog blows most of them.
 * Each round() adds one estimate, by its own binary search
 * over the whole ladder. The result is the median estimate, so it is
 * confirmed by repeated trials and no single noisy trial decides it.
 */
class CapacitySearch {
  public:
    CapacitySearch(Path path, apps::App& app, double trialSeconds,
                   uint64_t seed, const Faults& faults);

    /** Adds one estimate. */
    void round();

    /** Ladder rate of the median estimate; 0 when no rung passed. */
    double qps() const;
    int medianRung() const;

    int trials() const { return trials_; }
    uint64_t measured() const { return measured_; }
    uint64_t failures() const { return failures_; }
    /** One line per trial, for the report. */
    const std::vector<std::string>& log() const { return log_; }

  private:
    bool passes(int rung);

    Path path_;
    apps::App& app_;
    double trial_seconds_;
    uint64_t seed_;
    Faults faults_;
    std::vector<int> estimates_;
    int trials_ = 0;
    uint64_t measured_ = 0;
    uint64_t failures_ = 0;
    std::vector<std::string> log_;
};

/** Median over @p r's windows (kWindowRequests each) of their p99
 * sojourn, in ns. */
double medianWindowP99(const core::RunResult& r);

double ladderQps(int rung);

}  // namespace tb::perfbench

#endif  // TB_PERFBENCH_PHASES_H_
