#include "campaign/chaos_audit.hh"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "campaign/campaign.hh"
#include "campaign/checkpoint.hh"
#include "common/chaosio.hh"
#include "common/fsio.hh"
#include "common/logging.hh"
#include "common/netio.hh"
#include "common/random.hh"

namespace aos::campaign::chaos_audit {

namespace {

/** Scratch directory removed (with its files) on scope exit. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/aos-chaos-XXXXXX";
        if (::mkdtemp(tmpl))
            path = tmpl;
    }

    ~TempDir()
    {
        if (path.empty())
            return;
        for (const std::string &name : fsio::listDir(path))
            fsio::removeFile(path + "/" + name);
        ::rmdir(path.c_str());
    }
};

/**
 * Fold the engine tallies and the scenario verdict into a result.
 * Severity order: a violated contract outranks everything; a clean
 * abort outranks mere degradation; completing despite hard faults is
 * degraded_retried; benign-only (or no) injections are tolerated.
 */
ScenarioResult
classify(const chaos::ChaosEngine &eng, bool violation, bool cleanAbort,
         std::string detail)
{
    ScenarioResult r;
    r.chaosOps = eng.ops(chaos::Domain::kDisk) +
                 eng.ops(chaos::Domain::kNet) +
                 eng.ops(chaos::Domain::kAlloc);
    r.injected = eng.injectedTotal();
    r.detail = std::move(detail);
    if (violation)
        r.outcome = Outcome::kContractViolation;
    else if (cleanAbort)
        r.outcome = Outcome::kCleanAbort;
    else if (eng.injectedHard() > 0)
        r.outcome = Outcome::kDegradedRetried;
    else
        r.outcome = Outcome::kTolerated;
    return r;
}

/** A completed fake job whose record round-trips the checkpoint. */
JobResult
fakeResult(u32 id, Rng &rng)
{
    JobResult r;
    r.id = id;
    r.name = csprintf("job-%03u", id);
    r.profile = "synthetic";
    r.mech = baselines::Mechanism::kBaseline;
    r.seed = rng.next();
    r.ops = 1000 + rng.below(1000);
    r.status = JobStatus::kOk;
    r.attempts = 1;
    r.wallMs = static_cast<double>(rng.below(1000));
    r.stats.scalar("cycles") = static_cast<double>(rng.below(1u << 30));
    r.stats.scalar("ipc") = rng.uniform();
    return r;
}

bool
endsWith(const std::string &s, const char *suffix)
{
    const size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

} // namespace

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::kTolerated: return "tolerated";
      case Outcome::kDegradedRetried: return "degraded_retried";
      case Outcome::kCleanAbort: return "clean_abort";
      case Outcome::kContractViolation: return "contract_violation";
    }
    return "unknown";
}

ScenarioResult
auditCheckpointDisk(u64 seed, const CancelToken &cancel)
{
    Rng rng(seed);
    TempDir dir;
    if (dir.path.empty()) {
        chaos::ChaosEngine none{chaos::ChaosConfig{}};
        return classify(none, true, false, "mkdtemp failed");
    }

    const unsigned n = 6 + static_cast<unsigned>(rng.below(7));
    std::vector<JobResult> results;
    results.reserve(n);
    for (u32 i = 0; i < n; ++i)
        results.push_back(fakeResult(i, rng));
    const CheckpointManifest manifest{rng.next(), n, "chaos_audit"};

    chaos::ChaosConfig cfg;
    cfg.seed = rng.next();
    cfg.ratePerMille = 30 + static_cast<u32>(rng.below(270));
    cfg.domains = chaos::domainBit(chaos::Domain::kDisk);
    chaos::ChaosEngine eng(cfg);

    bool started = false;
    std::vector<bool> appended(n, false);
    {
        chaos::ChaosScope scope(&eng);
        CheckpointWriter writer;
        started = writer.start(dir.path, manifest, 2, CheckpointLoad{});
        if (started) {
            for (u32 i = 0; i < n; ++i)
                appended[i] = writer.append(i % 2, results[i]);
        }
        writer.close();
    }
    cancel.throwIfCancelled();

    // Contract: no failure path may leave an atomicWriteFile temp.
    std::string vio;
    for (const std::string &name : fsio::listDir(dir.path)) {
        if (endsWith(name, ".tmp"))
            vio = "stale temp file left behind: " + name;
    }

    if (vio.empty() && started) {
        const CheckpointLoad load = loadCheckpoint(dir.path, manifest);
        if (!load.valid) {
            vio = "started checkpoint did not load back: " + load.reason;
        } else {
            for (u32 i = 0; i < n && vio.empty(); ++i) {
                if (appended[i] && !load.present[i]) {
                    vio = csprintf("record %u reported durable but is "
                                   "missing", i);
                } else if (!appended[i] && load.present[i]) {
                    vio = csprintf("record %u reported failed but "
                                   "loaded back", i);
                } else if (appended[i] &&
                           encodeCheckpointRecord(load.restored[i]) !=
                               encodeCheckpointRecord(results[i])) {
                    vio = csprintf("record %u restored differently "
                                   "than written", i);
                }
            }
        }
    }

    // Contract: whatever chaos left behind, a chaos-free resume
    // completes every job (clean-abort recoverability).
    if (vio.empty()) {
        CheckpointLoad load = loadCheckpoint(dir.path, manifest);
        CheckpointWriter writer;
        if (!writer.start(dir.path, manifest, 2, load)) {
            vio = "chaos-free recovery start failed: " + writer.error();
        } else {
            for (u32 i = 0; i < n && vio.empty(); ++i) {
                if (load.valid && load.present[i])
                    continue;
                if (!writer.append(i % 2, results[i]))
                    vio = csprintf("chaos-free append of record %u "
                                   "failed", i);
            }
            writer.close();
            if (vio.empty()) {
                const CheckpointLoad final_ =
                    loadCheckpoint(dir.path, manifest);
                if (!final_.valid) {
                    vio = "recovered checkpoint invalid: " +
                          final_.reason;
                } else {
                    for (u32 i = 0; i < n && vio.empty(); ++i) {
                        if (!final_.present[i])
                            vio = csprintf("record %u missing after "
                                           "recovery", i);
                    }
                }
            }
        }
    }

    bool anyFailed = !started;
    for (u32 i = 0; i < n; ++i)
        anyFailed = anyFailed || (started && !appended[i]);
    return classify(eng, !vio.empty(), anyFailed, vio);
}

ScenarioResult
auditTransportNet(u64 seed, const CancelToken &cancel)
{
    Rng rng(seed);
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        chaos::ChaosEngine none{chaos::ChaosConfig{}};
        return classify(none, true, false, "socketpair failed");
    }
    netio::Socket tx(fds[0]);
    netio::Socket rx(fds[1]);

    const unsigned m = 8 + static_cast<unsigned>(rng.below(9));
    std::vector<std::pair<u32, std::string>> sent;
    sent.reserve(m);
    for (unsigned k = 0; k < m; ++k) {
        const u32 type = 1 + static_cast<u32>(rng.below(7));
        std::string payload(rng.below(2001), '\0');
        for (char &c : payload)
            c = static_cast<char>(rng.below(256));
        sent.emplace_back(type, std::move(payload));
    }

    chaos::ChaosConfig cfg;
    cfg.seed = rng.next();
    cfg.ratePerMille = 40 + static_cast<u32>(rng.below(360));
    cfg.domains = chaos::domainBit(chaos::Domain::kNet);
    chaos::ChaosEngine eng(cfg);

    unsigned sentOk = 0;
    bool sendAborted = false;
    bool recvReset = false;
    std::vector<std::pair<u32, std::string>> got;
    netio::FrameDecoder dec;
    {
        chaos::ChaosScope scope(&eng);
        for (unsigned k = 0; k < m; ++k) {
            if (!tx.sendAll(netio::encodeFrame(sent[k].first,
                                               sent[k].second))) {
                sendAborted = true; // A real sender drops the link.
                break;
            }
            ++sentOk;
        }
        tx.close(); // EOF for the drain below.

        char buf[4096];
        for (;;) {
            const long nr = rx.recvSome(buf, sizeof(buf));
            if (nr == 0)
                break;
            if (nr < 0) {
                recvReset = true;
                break;
            }
            dec.feed(buf, static_cast<size_t>(nr));
            u32 type = 0;
            std::string payload;
            while (dec.next(type, payload))
                got.emplace_back(type, payload);
            if (dec.corrupt())
                break;
        }
    }
    cancel.throwIfCancelled();

    std::string vio;
    // A decoded frame passed the CRC: it must BE the sent frame. An
    // injected flip that decoded anyway would be a CRC collision — the
    // exact silent corruption the framing exists to rule out.
    if (got.size() > sentOk) {
        vio = "decoded more frames than were fully sent";
    } else {
        for (size_t k = 0; k < got.size() && vio.empty(); ++k) {
            if (got[k] != sent[k])
                vio = csprintf("decoded frame %zu differs from the "
                               "frame sent", k);
        }
    }
    // Benign faults (short transfers, EINTR, delays) degrade timing,
    // never delivery: with no hard fault injected, everything must
    // arrive intact.
    const bool lossy =
        sendAborted || recvReset || dec.corrupt() || got.size() != m;
    if (vio.empty() && eng.injectedHard() == 0 && lossy)
        vio = "frames lost without any hard fault injected";

    const bool cleanAbort = sendAborted || recvReset || dec.corrupt();
    return classify(eng, !vio.empty(), cleanAbort, vio);
}

ScenarioResult
auditFabricNet(u64 seed, const CancelToken &cancel)
{
    using SteadyClock = std::chrono::steady_clock;
    Rng rng(seed);
    const unsigned jobs = 10 + static_cast<unsigned>(rng.below(6));
    std::vector<std::string> work;
    work.reserve(jobs);
    for (unsigned j = 0; j < jobs; ++j)
        work.push_back(csprintf("work-%u-%016llx", j,
                                static_cast<unsigned long long>(
                                    rng.next())));
    std::vector<bool> committed(jobs, false);

    chaos::ChaosConfig cfg;
    cfg.seed = rng.next();
    cfg.ratePerMille = 30 + static_cast<u32>(rng.below(220));
    cfg.domains = chaos::domainBit(chaos::Domain::kNet);
    chaos::ChaosEngine eng(cfg);
    // The echo worker models a remote process: its side of the link
    // must not share this thread's chaos schedule. A disabled engine
    // shadows any process-global one.
    chaos::ChaosEngine quiet{chaos::ChaosConfig{}};

    std::string vio;
    unsigned next = 0;
    unsigned generations = 0;
    unsigned inlineJobs = 0;

    while (next < jobs && generations < 6 && vio.empty()) {
        cancel.throwIfCancelled();
        ++generations;
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
            vio = "socketpair failed";
            break;
        }
        netio::Socket coord(fds[0]);
        std::thread worker([fd = fds[1], &quiet]() {
            chaos::ChaosScope scope(&quiet);
            netio::Socket sock(fd);
            netio::FrameDecoder dec;
            char buf[4096];
            for (;;) {
                const long nr = sock.recvSome(buf, sizeof(buf));
                if (nr <= 0)
                    return;
                dec.feed(buf, static_cast<size_t>(nr));
                u32 type = 0;
                std::string payload;
                while (dec.next(type, payload)) {
                    if (type != 1)
                        return;
                    if (!sock.sendAll(
                            netio::encodeFrame(2, "done:" + payload)))
                        return;
                }
                if (dec.corrupt())
                    return; // Detected corruption: drop the link.
            }
        });

        bool linkDead = false;
        {
            chaos::ChaosScope scope(&eng);
            netio::FrameDecoder dec;
            while (next < jobs && !linkDead && vio.empty()) {
                if (!coord.sendAll(netio::encodeFrame(1, work[next]))) {
                    linkDead = true;
                    break;
                }
                // Await the echo. A flipped length field can stall
                // the stream with both peers waiting (the declared
                // bytes never arrive), so silence is handled the way
                // the real coordinator handles heartbeat silence:
                // evict the link and re-run the job elsewhere. The
                // generation bound plus inline fallback below keep
                // the scenario itself finite.
                const SteadyClock::time_point deadline =
                    SteadyClock::now() + std::chrono::seconds(2);
                bool gotFrame = false;
                u32 type = 0;
                std::string payload;
                while (!gotFrame && !linkDead && vio.empty()) {
                    if (dec.next(type, payload)) {
                        gotFrame = true;
                        break;
                    }
                    if (dec.corrupt()) {
                        linkDead = true;
                        break;
                    }
                    if (SteadyClock::now() > deadline) {
                        linkDead = true; // Heartbeat-silence eviction.
                        break;
                    }
                    std::vector<size_t> readable;
                    if (!netio::pollReadable({coord.fd()}, 100,
                                             readable)) {
                        vio = "poll failed awaiting the echo";
                        break;
                    }
                    if (readable.empty())
                        continue;
                    char buf[4096];
                    const long nr = coord.recvSome(buf, sizeof(buf));
                    if (nr <= 0) {
                        linkDead = true;
                        break;
                    }
                    dec.feed(buf, static_cast<size_t>(nr));
                }
                if (!gotFrame)
                    break;
                if (type != 2 || payload != "done:" + work[next]) {
                    vio = csprintf("echo mismatch for job %u", next);
                    break;
                }
                if (committed[next]) {
                    vio = csprintf("job %u committed twice", next);
                    break;
                }
                committed[next] = true;
                ++next;
            }
        }
        coord.close(); // EOF unblocks the worker; join cannot hang.
        worker.join();
    }

    // Inline fallback: generations exhausted (or none needed) — the
    // coordinator itself finishes the queue, chaos-free.
    for (unsigned j = next; j < jobs && vio.empty(); ++j) {
        if (committed[j]) {
            vio = csprintf("job %u committed twice (inline)", j);
            break;
        }
        committed[j] = true;
        ++inlineJobs;
    }
    if (vio.empty()) {
        for (unsigned j = 0; j < jobs; ++j) {
            if (!committed[j]) {
                vio = csprintf("job %u never committed", j);
                break;
            }
        }
    }

    return classify(eng, !vio.empty(), inlineJobs > 0, vio);
}

ScenarioResult
auditCampaignAlloc(u64 seed, const CancelToken &cancel)
{
    Rng rng(seed);
    const unsigned jobs = 8;
    std::vector<u64> seeds;
    seeds.reserve(jobs);
    for (unsigned j = 0; j < jobs; ++j)
        seeds.push_back(rng.next());

    auto runNested = [&]() {
        CampaignOptions options;
        options.name = "chaos-alloc";
        options.workers = 1; // Runs on this thread: TLS chaos applies.
        options.maxAttempts = 4;
        options.cancel = &cancel;
        Campaign nested(options);
        for (unsigned j = 0; j < jobs; ++j) {
            Job job;
            job.name = csprintf("body-%u", j);
            job.seed = seeds[j];
            job.cancellableBody = [s = seeds[j]](const CancelToken &) {
                core::RunResult run;
                run.workload = "chaos-alloc";
                Rng body(s);
                run.extra.scalar("chaos_body_value") =
                    static_cast<double>(body.below(1u << 30));
                run.extra.scalar("chaos_body_checksum") = body.uniform();
                return run;
            };
            nested.add(std::move(job));
        }
        return nested.run();
    };

    const CampaignResult reference = runNested();
    cancel.throwIfCancelled();

    chaos::ChaosConfig cfg;
    cfg.seed = rng.next();
    cfg.ratePerMille = 150 + static_cast<u32>(rng.below(500));
    cfg.domains = chaos::domainBit(chaos::Domain::kAlloc);
    chaos::ChaosEngine eng(cfg);
    CampaignResult chaotic;
    {
        chaos::ChaosScope scope(&eng);
        chaotic = runNested();
    }

    std::string vio;
    bool anyFailed = false;
    if (!reference.allOk()) {
        vio = "chaos-free reference run failed";
    } else {
        for (unsigned j = 0; j < jobs && vio.empty(); ++j) {
            const JobResult &ref = reference.jobs[j];
            const JobResult &got = chaotic.jobs[j];
            if (!got.ok()) {
                // Attempts exhausted: acceptable only as a *reported*
                // failure.
                anyFailed = true;
                if (got.status != JobStatus::kFailed &&
                    got.status != JobStatus::kCancelled) {
                    vio = csprintf("job %u degraded to %s, not a "
                                   "reported failure", j,
                                   jobStatusName(got.status));
                }
                continue;
            }
            // A job that says kOk must be bit-identical to the
            // reference — chaos may cost retries, never correctness.
            const auto &refScalars = ref.stats.scalars();
            const auto &gotScalars = got.stats.scalars();
            if (refScalars.size() != gotScalars.size()) {
                vio = csprintf("job %u stat set diverged under chaos",
                               j);
                break;
            }
            for (const auto &[key, stat] : refScalars) {
                const auto it = gotScalars.find(key);
                if (it == gotScalars.end() ||
                    it->second.value() != stat.value()) {
                    vio = csprintf("job %u stat \"%s\" diverged under "
                                   "chaos", j, key.c_str());
                    break;
                }
            }
        }
    }

    return classify(eng, !vio.empty(), anyFailed, vio);
}

} // namespace aos::campaign::chaos_audit
