/**
 * @file
 * tb_perfbench: the repository benchmark's measuring program. run.py
 * builds it and is the command to run; see perfbench/README.md.
 *
 *   tb_perfbench --workload integrated|loopback --seed N --seconds S
 *                --trace 0|1 [--spans DIR] [--rev REV] [--fault F]
 *
 * An untraced run interleaves set-ups, the two fixed-rate points and
 * virtual-time calls over several rounds, then searches capacity; a
 * traced run measures each fixed-rate point plain and traced, then
 * calls every virtual-time app once. The last stdout line is the
 * result object; a run that fails its correctness gate prints no
 * numbers and exits 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "phases.h"
#include "util/alloc_probe.h"
#include "virtual_time.h"

extern char** environ;

namespace tb::perfbench {
namespace {

constexpr int kRounds = 9;
constexpr int kSetupPerRound = 2;
constexpr double kWarmupSeconds = 0.1;
// Shares of --seconds: each fixed-rate point (over all rounds), and the
// capacity search, spread over about kCapacityTrials trials.
constexpr double kPointShare = 0.25;
constexpr double kCapacityShare = 0.5;
constexpr double kCapacityTrials = 30.0;
constexpr int kCapacityRounds = 5;
// Share of --seconds for each point of a traced run (run twice: plain
// and traced), which also bounds the span files' size.
constexpr double kTracedShare = 0.1;

struct Args {
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 20.0;
    bool trace = false;
    std::string spans = ".bench_build/spans";
    std::string rev = "unknown";
    Faults faults;
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "tb_perfbench: %s\nusage: tb_perfbench --workload "
                 "integrated|loopback --seed N --seconds S --trace 0|1 "
                 "[--spans DIR] [--rev REV] "
                 "[--fault drop-response|perturb-digest]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char* v = argv[++i];
        char* end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &end);
        } else if (k == "--trace") {
            a.trace = std::strcmp(v, "1") == 0;
        } else if (k == "--spans") {
            a.spans = v;
        } else if (k == "--rev") {
            a.rev = v;
        } else if (k == "--fault") {
            if (std::strcmp(v, "drop-response") == 0)
                a.faults.dropOneResponse = true;
            else if (std::strcmp(v, "perturb-digest") == 0)
                a.faults.perturbDigest = true;
            else
                usage("unknown fault");
        } else {
            usage(("unknown argument " + k).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("malformed value for " + k).c_str());
    }
    if (a.workload != "integrated" && a.workload != "loopback")
        usage("--workload must be integrated or loopback");
    if (!(a.seconds > 0.0 && a.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
readFirstLine(const char* path)
{
    std::ifstream f(path);
    std::string line;
    std::getline(f, line);
    return line;
}

/** The run's context: what ran, where, and how it was configured. */
void
printContext(const Args& a, const std::string& loadavg)
{
    std::string env = "{";
    for (char** e = environ; *e != nullptr; e++) {
        if (std::strncmp(*e, "TAILBENCH_", 10) != 0)
            continue;
        const char* eq = std::strchr(*e, '=');
        if (eq == nullptr)
            continue;
        if (env.size() > 1)
            env += ", ";
        env += "\"" + jsonEscape(std::string(*e, static_cast<size_t>(eq - *e))) + "\": \"" +
            jsonEscape(eq + 1) + "\"";
    }
    env += "}";
    std::printf(
        "context {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
        "\"trace\": %d, \"git_rev\": \"%s\", \"build_type\": \"%s\", "
        "\"compiler\": \"%s\", \"nproc\": %u, \"loadavg_start\": \"%s\", "
        "\"app\": \"%s\", \"size\": %g, \"workers\": %u, "
        "\"queue_policy\": \"sharded\", \"io\": \"%s\", "
        "\"connections\": %u, \"low_qps\": %g, \"high_qps\": %g, "
        "\"slo_us\": %g, \"ladder\": \"%g*%g^k, k=%d..%d\", "
        "\"tailbench_env\": %s}\n",
        a.workload.c_str(), static_cast<unsigned long long>(a.seed),
        a.seconds, a.trace ? 1 : 0, jsonEscape(a.rev).c_str(),
        TB_PERFBENCH_BUILD_TYPE, jsonEscape(__VERSION__).c_str(),
        std::thread::hardware_concurrency(), jsonEscape(loadavg).c_str(),
        Pinned::kApp, Pinned::kSize, Pinned::kWorkers,
        a.workload == "loopback" ? "reactor(1 loop)" : "in-process",
        a.workload == "loopback" ? Pinned::kConnections : 0u,
        Pinned::kLowQps, Pinned::kHighQps,
        static_cast<double>(Pinned::kSloNs) / 1e3, Pinned::kLadderBase,
        Pinned::kLadderStep, Pinned::kLadderMin, Pinned::kLadderMax,
        env.c_str());
}

struct Metric {
    std::string name;
    double value;
    const char* unit;
    /** Printed on an "ungated" report line only, never in the result
     * object: too unsteady on a shared host to hold a bound. */
    bool gated = true;
};

/** Accumulates the correctness gate over every phase of a run. */
struct Gate {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;

    void
    account(const std::string& what, uint64_t n, uint64_t bad)
    {
        attempted += n;
        failed += bad;
        if (bad > 0)
            failures.push_back(what + ": " + std::to_string(bad) + " of " +
                               std::to_string(n) + " failed");
    }
};

/** One fixed-rate segment. */
struct Segment {
    double p50Ns = 0.0, p99Ns = 0.0;  // over the segment's requests
    double medianWindowP99Ns = 0.0;
    double lateFrac = 0.0;
    double cpuSeconds = 0.0;
    uint64_t sent = 0;
};

/**
 * Every segment run at one fixed rate, pooled as if it were one run:
 * the p50 and p99 over all measured requests, the median over all
 * reporting windows (kWindowRequests each) of their p99, and the share
 * of all measured requests sent late. A stall moves the pooled
 * statistics wherever it lands, and the windowed p99 when it hits
 * most windows. The report prints each segment too.
 */
struct RateSeries {
    const char* label;
    double qps;
    std::vector<Segment> segments{};
    std::vector<int64_t> sojournNs{};    // every measured request
    std::vector<double> windowP99Ns{};   // every window
    double lateRequests = 0.0;

    void
    add(const PointResult& r)
    {
        Segment seg;
        seg.p50Ns = static_cast<double>(r.run.latency.sojourn.p50Ns);
        seg.p99Ns = static_cast<double>(r.run.latency.sojourn.p99Ns);
        seg.medianWindowP99Ns = perfbench::medianWindowP99(r.run);
        seg.lateFrac = r.run.coLateFrac;
        seg.cpuSeconds = r.cpuSeconds;
        seg.sent = r.sent;
        segments.push_back(seg);
        for (const core::RequestTiming& t : r.run.samples)
            sojournNs.push_back(t.sojournNs());
        for (const core::WindowStats& w : r.run.windows)
            if (w.count > 0)
                windowP99Ns.push_back(static_cast<double>(w.sojournP99Ns));
        lateRequests += r.run.coLateFrac *
            static_cast<double>(r.run.latency.sojourn.count);
    }

    core::LatencySummary
    sojourn() const
    {
        return core::summarizeNs(sojournNs);
    }
    double medianWindowP99() const { return median(windowP99Ns); }
    double
    lateFrac() const
    {
        return sojournNs.empty()
            ? 0.0
            : lateRequests / static_cast<double>(sojournNs.size());
    }

    void
    print() const
    {
        for (size_t i = 0; i < segments.size(); i++) {
            const Segment& s = segments[i];
            std::printf("segment %-4s %zu  p50 %.1f us  p99 %.1f us  "
                        "median-window p99 %.1f us  late_frac %.4f\n",
                        label, i, s.p50Ns / 1e3, s.p99Ns / 1e3,
                        s.medianWindowP99Ns / 1e3, s.lateFrac);
        }
        const core::LatencySummary all = sojourn();
        std::printf("rate %-4s %.0f qps  p50 %.1f us  p99 %.1f us  "
                    "median-window p99 %.1f us  late_frac %.4f  n %llu  "
                    "windows %zu\n",
                    label, qps, static_cast<double>(all.p50Ns) / 1e3,
                    static_cast<double>(all.p99Ns) / 1e3,
                    medianWindowP99() / 1e3, lateFrac(),
                    static_cast<unsigned long long>(all.count),
                    windowP99Ns.size());
    }
};

void
printPoint(const char* label, double qps, const PointResult& r)
{
    const core::LatencySummary& s = r.run.latency.sojourn;
    std::printf("point %-12s offered %.0f achieved %.0f qps  p50 %.1f us  "
                "p99 %.1f us  n %llu  late_frac %.4f  cpu %.3f s  "
                "failures %llu\n",
                label, qps, r.run.achievedQps,
                static_cast<double>(s.p50Ns) / 1e3,
                static_cast<double>(s.p99Ns) / 1e3,
                static_cast<unsigned long long>(s.count), r.run.coLateFrac,
                r.cpuSeconds, static_cast<unsigned long long>(r.failures));
}

PointSpec
pointSpec(double qps, double seconds, uint64_t seed)
{
    PointSpec spec;
    spec.qps = qps;
    spec.seconds = seconds;
    spec.warmupSeconds = kWarmupSeconds;
    spec.seed = seed;
    spec.keepSamples = true;
    return spec;
}

/**
 * The virtual-time work of a run, app by app. Each app's CPU time is
 * its median over its calls: other tenants' cache and memory traffic
 * moves it both ways, in phases of seconds, so the calls are spread
 * over the run. The host also runs slower or faster for minutes at a
 * time, which moves every call of a run alike, so the times are
 * rescaled to the nominal host by the run's median referenceSeconds(),
 * gauged before every call.
 */
struct VtSeries {
    std::vector<std::vector<SimSample>> sim;      // per app, per call
    std::vector<std::vector<TraceSample>> trace;  // per app, per call
    std::vector<double> reference;                // before every call

    explicit VtSeries(const VirtualTime& vt)
        : sim(vt.simApps()), trace(vt.traceApps())
    {
    }

    void
    simulate(const VirtualTime& vt, size_t app, Gate& gate)
    {
        reference.push_back(referenceSeconds());
        sim[app].push_back(vt.simulate(app));
        account(sim[app].back().checks, gate);
    }

    void
    traceApp(const VirtualTime& vt, size_t app, Gate& gate)
    {
        reference.push_back(referenceSeconds());
        trace[app].push_back(vt.trace(app));
        account(trace[app].back().checks, gate);
    }

    /** Determinism and golden checks, once every app has been called. */
    void
    finish(const VirtualTime& vt, const Faults& faults, Gate& gate) const
    {
        std::vector<uint64_t> sim_digests, trace_digests;
        uint64_t calls = 0;
        uint64_t differing = 0;
        const auto same = [&](const auto& samples, std::vector<uint64_t>& out) {
            for (const auto& s : samples) {
                calls++;
                differing += s.digest != samples.front().digest;
            }
            out.push_back(samples.front().digest);
        };
        for (const std::vector<SimSample>& v : sim)
            same(v, sim_digests);
        for (const std::vector<TraceSample>& v : trace)
            same(v, trace_digests);
        gate.account("virtual-time determinism", calls, differing);
        const uint64_t digest =
            VirtualTime::combine(sim_digests, trace_digests) ^
            (faults.perturbDigest ? 1u : 0u);
        std::printf("virtual-time digest %016llx (%llu calls), reference "
                    "median %.3f ms (nominal %.3f ms)\n",
                    static_cast<unsigned long long>(digest),
                    static_cast<unsigned long long>(calls),
                    median(reference) * 1e3,
                    kReferenceNominalSeconds * 1e3);
        Checks golden;
        vt.checkGolden(digest, golden);
        account(golden, gate);
    }

    /** Sum over apps of each app's median CPU seconds, at the nominal
     * host's speed. */
    template <typename Sample>
    double
    medianSum(const std::vector<std::vector<Sample>>& perApp,
              double Sample::*field) const
    {
        double total = 0.0;
        for (const std::vector<Sample>& calls : perApp) {
            std::vector<double> v;
            for (const Sample& s : calls)
                v.push_back(s.*field);
            total += median(v);
        }
        return total * speedScale();
    }

    /** Converts this run's CPU or wall seconds to the nominal host's,
     * by the median of the reference gauged before every call. */
    double
    speedScale() const
    {
        return kReferenceNominalSeconds / median(reference);
    }

    double simSeconds() const { return medianSum(sim, &SimSample::simSeconds); }
    double mgnSeconds() const { return medianSum(sim, &SimSample::mgnSeconds); }
    double buildSeconds() const
    {
        return medianSum(sim, &SimSample::buildSeconds);
    }
    double traceSeconds() const
    {
        return medianSum(trace, &TraceSample::seconds);
    }
    double simRequests() const
    {
        return static_cast<double>(sim.front().front().requests * sim.size());
    }
    double traceKinstr() const
    {
        return static_cast<double>(trace.front().front().kinstr *
                                   trace.size());
    }

    /** Simulated requests per nominal-host CPU second over SimHarness +
     * simulateMgn. */
    double
    mreqPerS() const
    {
        return 2.0 * simRequests() / (simSeconds() + mgnSeconds()) / 1e6;
    }
    /** Simulated instructions per nominal-host CPU second of
     * measureTraceMpki. */
    double
    minstrPerS() const
    {
        return traceKinstr() / 1e3 / traceSeconds();
    }

  private:
    static void
    account(const Checks& checks, Gate& gate)
    {
        gate.account("virtual-time checks", checks.run, checks.failed.size());
        for (const std::string& f : checks.failed)
            gate.failures.push_back("virtual-time " + f);
    }
};

/** Untraced run: the end-to-end metrics. Set-ups, fixed-rate segments
 * and virtual-time passes are interleaved over kRounds rounds, so a
 * burst of host noise lands in a few segments of each; the capacity
 * rounds follow, after the peak-memory reading. */
void
endToEnd(const Args& a, Path path, Gate& gate, std::vector<Metric>& metrics)
{
    const VirtualTime vt(a.seed);
    std::unique_ptr<apps::App> app;
    std::vector<double> setup;
    RateSeries low{"low", Pinned::kLowQps};
    RateSeries high{"high", Pinned::kHighQps};
    VtSeries vts(vt);
    const std::unique_ptr<apps::App> cap_app = makePinnedApp(a.seed);
    CapacitySearch cap(path, *cap_app,
                       a.seconds * kCapacityShare / kCapacityTrials,
                       a.seed * 16 + 3, a.faults);
    const double segment = a.seconds * kPointShare / kRounds;
    for (int r = 0; r < kRounds; r++) {
        for (int i = 0; i < kSetupPerRound; i++) {
            const SetupSample s = measureSetup(path, a.seed, a.faults, app);
            setup.push_back(s.seconds);
            gate.account("setup probe", s.probe.measured, s.probe.failures);
        }
        const PointResult lo = runPoint(
            path, *app, pointSpec(low.qps, segment, a.seed * 64 + 2 * r),
            nullptr, a.faults);
        const PointResult hi = runPoint(
            path, *app, pointSpec(high.qps, segment, a.seed * 64 + 2 * r + 1),
            nullptr, a.faults);
        gate.account("low", lo.measured, lo.failures);
        gate.account("high", hi.measured, hi.failures);
        low.add(lo);
        high.add(hi);
        // Every simulated app and three traced apps a round: every app
        // gets at least three calls, at different points of the run.
        for (size_t k = 0; k < vt.simApps(); k++)
            vts.simulate(vt, k, gate);
        for (size_t k : {0, 3, 6})
            vts.traceApp(vt, (r + k) % vt.traceApps(), gate);
    }
    vts.finish(vt, a.faults, gate);
    // Peak memory of serving at the fixed rates, before the capacity
    // search overloads the stack on purpose: its unbounded queues then
    // grow with how far past capacity a trial lands.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    for (int r = 0; r < kCapacityRounds; r++)
        cap.round();
    gate.account("capacity", cap.measured(), cap.failures());
    std::printf("setup median %.6f s (%zu samples), %.6f s at the nominal "
                "host's speed\n",
                median(setup), setup.size(), median(setup) * vts.speedScale());
    low.print();
    high.print();
    for (const std::string& line : cap.log())
        std::printf("capacity %s\n", line.c_str());
    std::printf("capacity max_qps_at_slo %.0f (median rung %+d, %d trials)\n",
                cap.qps(), cap.medianRung(), cap.trials());

    // Set-up is mostly App::init, CPU work that the host's speed moves
    // as it moves the virtual-time calls.
    metrics.push_back({"setup_s", median(setup) * vts.speedScale(), "s"});
    metrics.push_back(
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"});
    std::vector<double> cpu_per_req;  // one per round
    for (size_t r = 0; r < low.segments.size(); r++) {
        const Segment& l = low.segments[r];
        const Segment& h = high.segments[r];
        cpu_per_req.push_back((l.cpuSeconds + h.cpuSeconds) * 1e6 /
                              static_cast<double>(l.sent + h.sent));
    }
    // The latencies and the capacity are reported ungated: on a shared
    // host they do not repeat within a bound from run to run. At high,
    // the loopback stack runs near its knee, where the hypervisor's
    // multi-millisecond descheduling of a vCPU backs the queues up; on
    // a shared 4-vCPU host, ten consecutive runs gave a windowed p99 at
    // high of 0.34-4.3 ms, a p99 over all requests of 1-125 ms and a
    // capacity of 0-70k qps. At low every request wakes parked
    // threads, and a vCPU's wake-up latency comes and goes with the
    // host's load.
    const core::LatencySummary hi_all = high.sojourn();
    const core::LatencySummary lo_all = low.sojourn();
    const auto us = [](int64_t ns) { return static_cast<double>(ns) / 1e3; };
    metrics.push_back({"p50_us.high", us(hi_all.p50Ns), "us", false});
    metrics.push_back(
        {"p99_us.high", high.medianWindowP99() / 1e3, "us", false});
    metrics.push_back({"p99_all_us.high", us(hi_all.p99Ns), "us", false});
    metrics.push_back({"p50_us.low", us(lo_all.p50Ns), "us", false});
    metrics.push_back(
        {"p99_us.low", low.medianWindowP99() / 1e3, "us", false});
    metrics.push_back({"p99_all_us.low", us(lo_all.p99Ns), "us", false});
    metrics.push_back({"late_frac.low", low.lateFrac(), "frac", false});
    metrics.push_back({"max_qps_at_slo", cap.qps(), "1/s", false});
    metrics.push_back({"late_frac.high", high.lateFrac(), "frac"});
    // CPU per request is not one-sided under host noise (batching grows
    // when the stack falls behind), so it takes the median round.
    metrics.push_back({"cpu_us_per_req", median(cpu_per_req), "us"});
    metrics.push_back({"vt_mreq_per_s", vts.mreqPerS(), "Mreq/s"});
    metrics.push_back({"trace_minstr_per_s", vts.minstrPerS(), "Minstr/s"});
}

/** Traced run: the per-layer metrics this program can compute itself
 * (run.py adds the span-derived ones from the files written here). */
void
traced(const Args& a, Path path, Gate& gate, std::vector<Metric>& metrics)
{
    std::unique_ptr<apps::App> app;
    std::vector<double> init, connect;
    for (int i = 0; i < kRounds * kSetupPerRound; i++) {
        const SetupSample s = measureSetup(path, a.seed, a.faults, app);
        init.push_back(s.initSeconds);
        connect.push_back(s.connectSeconds);
        gate.account("setup probe", s.probe.measured, s.probe.failures);
    }
    metrics.push_back({"apps.init_ms", median(init) * 1e3, "ms"});
    metrics.push_back({"net.connect_ms", median(connect) * 1e3, "ms"});

    // Each fixed-rate point untraced, then traced with the same inputs;
    // the probe counters run only over the traced high point.
    const double seconds = a.seconds * kTracedShare;
    const PointSpec specs[2] = {
        pointSpec(Pinned::kLowQps, seconds, a.seed * 64),
        pointSpec(Pinned::kHighQps, seconds, a.seed * 64 + 1)};
    const char* labels[2] = {"low", "high"};
    double overhead = 0.0;
    for (int i = 0; i < 2; i++) {
        const PointResult plain =
            runPoint(path, *app, specs[i], nullptr, a.faults);
        gate.account(labels[i], plain.measured, plain.failures);
        printPoint(labels[i], specs[i].qps, plain);

        const uint64_t warmup = static_cast<uint64_t>(
            std::llround(specs[i].qps * specs[i].warmupSeconds));
        const uint64_t total = warmup +
            static_cast<uint64_t>(std::llround(specs[i].qps * specs[i].seconds));
        TraceStore store(total, warmup);
        const bool probe = i == 1;
        if (probe) {
            util::probe::reset();
            util::probe::setEnabled(true);
        }
        const PointResult r = runPoint(path, *app, specs[i], &store, a.faults);
        if (probe) {
            util::probe::setEnabled(false);
            const auto per_req = [&r](util::probe::Counter c) {
                return static_cast<double>(util::probe::value(c)) /
                    static_cast<double>(r.sent);
            };
            metrics.push_back({"core.notifies_per_req",
                               per_req(util::probe::kQueueNotifies), "count"});
            metrics.push_back({"net.resp_writes_per_req",
                               per_req(util::probe::kRespWrites), "count"});
            metrics.push_back({"net.eventfd_wakes_per_req",
                               per_req(util::probe::kEventfdWakes), "count"});
            metrics.push_back({"util.heap_allocs_per_req",
                               per_req(util::probe::kHeapAllocs), "count"});
        }
        gate.account(std::string(labels[i]) + " traced", r.measured,
                     r.failures);
        printPoint((std::string(labels[i]) + "+trace").c_str(), specs[i].qps,
                   r);
        overhead += 50.0 *
            (static_cast<double>(r.run.latency.sojourn.p50Ns) /
                 std::max<double>(1.0, plain.run.latency.sojourn.p50Ns) -
             1.0);
        const std::string file =
            a.spans + "/" + a.workload + "-" + labels[i] + ".tsv";
        const uint64_t unjoined = writeSpans(store, file);
        gate.account(std::string(labels[i]) + " span join", r.measured,
                     unjoined);
        std::printf("spans %s %s\n", labels[i], file.c_str());
    }
    metrics.push_back({"trace.overhead_pct", overhead, "%"});

    const VirtualTime vt(a.seed);
    VtSeries vts(vt);
    for (size_t i = 0; i < vt.simApps(); i++)
        vts.simulate(vt, i, gate);
    for (size_t i = 0; i < vt.traceApps(); i++)
        vts.traceApp(vt, i, gate);
    vts.finish(vt, a.faults, gate);
    double build_requests = 0.0;
    double iters = 0.0;
    for (const std::vector<SimSample>& v : vts.sim)
        build_requests += static_cast<double>(v.front().buildRequests);
    for (const std::vector<TraceSample>& v : vts.trace)
        iters += v.front().iterations;
    metrics.push_back({"core.build_result_ns_per_req",
                       vts.buildSeconds() * 1e9 / build_requests, "ns"});
    metrics.push_back({"sim.harness_ns_per_req",
                       vts.simSeconds() * 1e9 / vts.simRequests(), "ns"});
    metrics.push_back({"queueing.mgn_ns_per_req",
                       vts.mgnSeconds() * 1e9 / vts.simRequests(), "ns"});
    metrics.push_back({"sim.trace_ns_per_kinstr",
                       vts.traceSeconds() * 1e9 / vts.traceKinstr(), "ns"});
    metrics.push_back({"sim.trace_calib_iters",
                       iters / static_cast<double>(vts.trace.size()),
                       "count"});
}

int
run(const Args& a)
{
    const std::string loadavg = readFirstLine("/proc/loadavg");
    const Path path =
        a.workload == "integrated" ? Path::kIntegrated : Path::kLoopback;
    printContext(a, loadavg);

    Gate gate;
    std::vector<Metric> metrics;
    if (a.trace)
        traced(a, path, gate, metrics);
    else
        endToEnd(a, path, gate, metrics);

    const bool correct = gate.failed == 0;
    for (const std::string& f : gate.failures)
        std::printf("FAILED %s\n", f.c_str());
    if (correct)
        for (const Metric& m : metrics)
            std::printf("%-7s %-30s %.6g %s\n",
                        m.gated ? "metric" : "ungated", m.name.c_str(),
                        m.value, m.unit);
    metrics.erase(std::remove_if(metrics.begin(), metrics.end(),
                                 [](const Metric& m) { return !m.gated; }),
                  metrics.end());
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(gate.attempted) +
        ", \"failed\": " + std::to_string(gate.failed) + ", \"metrics\": {";
    if (correct) {
        for (size_t i = 0; i < metrics.size(); i++) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i ? ", " : "", metrics[i].name.c_str(),
                          metrics[i].value, metrics[i].unit);
            json += buf;
        }
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace tb::perfbench

int
main(int argc, char** argv)
{
    return tb::perfbench::run(tb::perfbench::parseArgs(argc, argv));
}
