#ifndef TAILBENCH_CORE_CLIENT_H_
#define TAILBENCH_CORE_CLIENT_H_

/**
 * @file
 * The client half of the harness API: the one place that owns the
 * open-loop arrival schedule (drawn from the pluggable
 * core::ArrivalProcess — Poisson baseline, bursts, diurnal, trace),
 * generation-time stamping, warmup separation, generator-lag tracking
 * and result building. Every real-time configuration is "LoadClient +
 * some Transport"; the methodology lives here exactly once.
 *
 * Threading: run() uses the calling thread as the generator, paced by
 * a util::Pacer for the whole run (genNs is the *scheduled* arrival,
 * stamped before sendRequest — a slow server or transport shows up as
 * sojourn, never as missing load) and one collector thread draining
 * Transport::recvResponse. Warmup responses are dropped at
 * collection; measured ones feed buildRunResult.
 */

#include <vector>

#include "core/harness.h"
#include "core/transport.h"

namespace tb::core {

class LoadClient {
  public:
    /**
     * One full measurement against @p transport: warmup + measured
     * requests of @p app at cfg.qps, then finishSend() and drain.
     * The service side must already be consuming the transport's
     * server end (e.g. a started ServiceLoop), or run() blocks
     * forever.
     */
    RunResult run(apps::App& app, const HarnessConfig& cfg,
                  Transport& transport);

    /**
     * Shared result-building tail, also used by the virtual-time
     * SimHarness: buildRunResult with the config's windows/SLO knobs
     * + the generator-lag accounting (records maxGenLagNs and warns
     * when the lag exceeds one mean interarrival gap — the run's
     * offered load was silently below nominal). @p genLag, when
     * non-empty, feeds per-window lag and the coordinated-omission
     * self-check; virtual-time callers leave it empty.
     */
    static RunResult finalize(std::vector<RequestTiming>&& timings,
                              const HarnessConfig& cfg,
                              int64_t maxGenLagNs,
                              std::vector<GenLagSample>&& genLag = {});
};

}  // namespace tb::core

#endif  // TAILBENCH_CORE_CLIENT_H_
