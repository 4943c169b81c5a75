#include "campaign/checkpoint.hh"

#include <algorithm>
#include <cstring>
#include <new>

#include "common/backoff.hh"
#include "common/chaosio.hh"
#include "common/logging.hh"

namespace aos::campaign {

namespace {

constexpr u32 kManifestMagic = 0x4D534F41; // "AOSM"
constexpr u32 kRecordMagic = 0x4A534F41;   // "AOSJ"
/** No legitimate record approaches this; larger lengths mean a torn
 *  or bit-flipped header. */
constexpr u32 kMaxRecordBytes = 64u << 20;

// --- little-endian encode/decode helpers ----------------------------

void
putU32(std::string &out, u32 v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void
putU64(std::string &out, u64 v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void
putU8(std::string &out, u8 v)
{
    out.push_back(static_cast<char>(v));
}

void
putF64(std::string &out, double v)
{
    u64 bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(out, bits);
}

void
putStr(std::string &out, const std::string &s)
{
    putU32(out, static_cast<u32>(s.size()));
    out.append(s);
}

/** Bounds-checked sequential reader over a byte range. */
struct Cursor
{
    const unsigned char *data;
    size_t size;
    size_t off = 0;
    bool ok = true;

    bool
    need(size_t n)
    {
        if (!ok || off + n > size || off + n < off)
            ok = false;
        return ok;
    }

    u8
    u8v()
    {
        if (!need(1))
            return 0;
        return data[off++];
    }

    u32
    u32v()
    {
        if (!need(4))
            return 0;
        u32 v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<u32>(data[off + i]) << (8 * i);
        off += 4;
        return v;
    }

    u64
    u64v()
    {
        if (!need(8))
            return 0;
        u64 v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<u64>(data[off + i]) << (8 * i);
        off += 8;
        return v;
    }

    double
    f64v()
    {
        const u64 bits = u64v();
        double v = 0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        const u32 len = u32v();
        if (!need(len))
            return {};
        std::string s(reinterpret_cast<const char *>(data + off), len);
        off += len;
        return s;
    }

    bool consumedExactly() const { return ok && off == size; }
};

u8
statusCode(JobStatus status)
{
    switch (status) {
      case JobStatus::kOk: return 1;
      case JobStatus::kFailed: return 2;
      case JobStatus::kTimeout: return 3;
      case JobStatus::kPending:
      case JobStatus::kCancelled:
        break;
    }
    panic("checkpointing a job that did not run to completion");
}

bool
statusFromCode(u8 code, JobStatus &out)
{
    switch (code) {
      case 1: out = JobStatus::kOk; return true;
      case 2: out = JobStatus::kFailed; return true;
      case 3: out = JobStatus::kTimeout; return true;
      default: return false;
    }
}

std::string
encodePayload(const JobResult &r)
{
    std::string p;
    putU32(p, r.id);
    putU8(p, statusCode(r.status));
    putU32(p, r.attempts);
    putF64(p, r.wallMs);
    putU8(p, static_cast<u8>(r.mech));
    putU64(p, r.seed);
    putU64(p, r.ops);
    putStr(p, r.name);
    putStr(p, r.profile);
    putStr(p, r.error);
    // Stats round-trip as raw IEEE-754 bits so a resumed campaign
    // serializes byte-identical canonical JSON.
    putU32(p, static_cast<u32>(r.stats.scalars().size()));
    for (const auto &[key, stat] : r.stats.scalars()) {
        putStr(p, key);
        putF64(p, stat.value());
    }
    return p;
}

bool
decodePayload(const unsigned char *data, size_t size, JobResult &r)
{
    Cursor c{data, size};
    r.id = c.u32v();
    JobStatus status = JobStatus::kPending;
    if (!statusFromCode(c.u8v(), status))
        return false;
    r.status = status;
    r.attempts = c.u32v();
    r.wallMs = c.f64v();
    const u8 mech = c.u8v();
    if (mech >= baselines::mechanismSpecs().size())
        return false;
    r.mech = static_cast<baselines::Mechanism>(mech);
    r.seed = c.u64v();
    r.ops = c.u64v();
    r.name = c.str();
    r.profile = c.str();
    r.error = c.str();
    const u32 nstats = c.u32v();
    for (u32 i = 0; c.ok && i < nstats; ++i) {
        const std::string key = c.str();
        const double value = c.f64v();
        if (c.ok)
            r.stats.scalar(key) = value;
    }
    return c.consumedExactly();
}

bool
decodeManifest(const std::string &raw, CheckpointManifest &m,
               std::string &reason)
{
    if (raw.size() < 4) {
        reason = "manifest truncated";
        return false;
    }
    const auto *bytes = reinterpret_cast<const unsigned char *>(raw.data());
    Cursor tail{bytes + raw.size() - 4, 4};
    const u32 crc = tail.u32v();
    if (fsio::crc32(raw.data(), raw.size() - 4) != crc) {
        reason = "manifest CRC mismatch";
        return false;
    }
    Cursor c{bytes, raw.size() - 4};
    if (c.u32v() != kManifestMagic) {
        reason = "manifest magic mismatch";
        return false;
    }
    const u32 version = c.u32v();
    if (version != kCheckpointFormatVersion) {
        reason = csprintf("manifest format version %u (expected %u)",
                          version, kCheckpointFormatVersion);
        return false;
    }
    m.identity = c.u64v();
    m.jobCount = c.u64v();
    m.name = c.str();
    if (!c.consumedExactly()) {
        reason = "manifest malformed";
        return false;
    }
    return true;
}

std::string
shardFileName(unsigned index)
{
    return csprintf("shard-%03u.log", index);
}

/**
 * Retry a disk operation through the shared backoff policy. Transient
 * faults (the kind the chaos engine injects and real disks produce —
 * brief EIO, fd-table pressure) clear within a retry or two; a disk
 * that stays broken for all six attempts is a real failure and is
 * reported as such. The seed salt keeps concurrent retriers unsynced
 * while staying deterministic for a fixed chaos seed.
 */
template <typename Fn>
bool
retryDisk(Fn &&fn, u64 seedSalt)
{
    BackoffPolicy policy;
    policy.initialMs = 1;
    policy.maxMs = 50;
    policy.multiplier = 4;
    policy.maxAttempts = 6;
    policy.seed = seedSalt;
    Backoff backoff(policy);
    for (;;) {
        if (fn())
            return true;
        if (!backoff.sleep())
            return false;
    }
}

/** Sorted paths of every shard file in @p dir. */
std::vector<std::string>
findShards(const std::string &dir)
{
    std::vector<std::string> paths;
    for (const std::string &name : fsio::listDir(dir)) {
        if (name.size() > 10 && name.rfind("shard-", 0) == 0 &&
            name.compare(name.size() - 4, 4, ".log") == 0) {
            paths.push_back(dir + "/" + name);
        }
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

/** FNV-1a accumulator with typed feeds (all little-endian). */
struct Hasher
{
    u64 h = 0xcbf29ce484222325ULL;

    void
    u64v(u64 v)
    {
        unsigned char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
        h = fsio::fnv1a64(bytes, sizeof(bytes), h);
    }

    void u32v(u32 v) { u64v(v); }
    void b(bool v) { u64v(v ? 1 : 0); }

    void
    f64(double v)
    {
        u64 bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64v(bits);
    }

    void
    str(const std::string &s)
    {
        u64v(s.size());
        h = fsio::fnv1a64(s.data(), s.size(), h);
    }
};

} // namespace

u64
identityHash(const CampaignOptions &options, const std::vector<Job> &jobs)
{
    Hasher h;
    h.u32v(kCheckpointFormatVersion);
    h.str(options.name);
    h.u32v(std::max(1u, options.maxAttempts));
    h.f64(options.timeoutSec);
    h.u64v(jobs.size());
    for (const Job &job : jobs) {
        h.str(job.name);
        // Profile shape (a renamed-but-identical profile is fine; a
        // same-named profile with different parameters is not).
        const workloads::WorkloadProfile &p = job.profile;
        h.str(p.name);
        h.u64v(p.fullMaxActive);
        h.u64v(p.fullAllocCalls);
        h.u64v(p.fullDeallocCalls);
        h.u64v(p.targetActive);
        h.f64(p.allocsPerKOp);
        h.f64(p.heapFraction);
        h.u32v(p.loadPerMille);
        h.u32v(p.storePerMille);
        h.u32v(p.branchPerMille);
        h.u32v(p.fpPerMille);
        h.u32v(p.callPerMille);
        h.u32v(p.numBranches);
        h.f64(p.hardBranchFraction);
        h.u64v(p.heapChunkMin);
        h.u64v(p.heapChunkMax);
        h.u64v(p.globalFootprint);
        h.u64v(p.codeFootprint);
        h.f64(p.reuse);
        h.f64(p.pointerLoadFraction);
        h.f64(p.ptrArithFraction);
        // Effective job spec (mech/ops/seed override the options).
        h.u32v(static_cast<u32>(job.mech));
        h.u64v(job.seed);
        h.u64v(job.ops ? job.ops : job.options.measureOps);
        h.b(static_cast<bool>(job.cancellableBody));
        const baselines::SystemOptions &o = job.options;
        h.b(o.boundsCompression);
        h.b(o.useL1B);
        h.b(o.useBwb);
        h.b(o.boundsForwarding);
        h.u32v(o.pacBits);
        h.u32v(o.initialHbtAssoc);
        h.b(o.aosElision);
        h.b(o.aosBoundsElision);
        h.b(o.verifyStream);
        h.u32v(o.faultTypes);
        h.u32v(o.faultCount);
        h.u64v(o.faultSeed);
    }
    return h.h;
}

bool
decodeCheckpointRecord(const void *data, size_t size, JobResult &out,
                       size_t *consumed)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    if (size < 12)
        return false;
    Cursor header{bytes, 12};
    const u32 magic = header.u32v();
    const u32 length = header.u32v();
    const u32 crc = header.u32v();
    if (magic != kRecordMagic || length > kMaxRecordBytes ||
        12 + static_cast<size_t>(length) > size) {
        return false;
    }
    if (fsio::crc32(bytes + 12, length) != crc)
        return false;
    if (!decodePayload(bytes + 12, length, out))
        return false;
    if (consumed)
        *consumed = 12 + static_cast<size_t>(length);
    return true;
}

std::string
encodeCheckpointRecord(const JobResult &r)
{
    const std::string payload = encodePayload(r);
    std::string record;
    record.reserve(payload.size() + 12);
    putU32(record, kRecordMagic);
    putU32(record, static_cast<u32>(payload.size()));
    putU32(record, fsio::crc32(payload.data(), payload.size()));
    record.append(payload);
    return record;
}

std::string
encodeCheckpointManifest(const CheckpointManifest &m)
{
    std::string p;
    putU32(p, kManifestMagic);
    putU32(p, kCheckpointFormatVersion);
    putU64(p, m.identity);
    putU64(p, m.jobCount);
    putStr(p, m.name);
    putU32(p, fsio::crc32(p.data(), p.size()));
    return p;
}

CheckpointLoad
loadCheckpoint(const std::string &dir, const CheckpointManifest &expect)
{
    CheckpointLoad load;
    for (const std::string &path : findShards(dir))
        load.shards.emplace_back(path, 0);

    std::string raw;
    if (!fsio::readFile(dir + "/manifest.bin", raw)) {
        load.reason = "no manifest";
        return load;
    }
    load.manifestFound = true;

    CheckpointManifest found;
    if (!decodeManifest(raw, found, load.reason))
        return load;
    if (found.identity != expect.identity ||
        found.jobCount != expect.jobCount) {
        load.reason = "campaign spec changed (identity hash mismatch)";
        return load;
    }

    load.valid = true;
    load.restored.resize(expect.jobCount);
    load.present.assign(expect.jobCount, false);

    for (auto &[path, validBytes] : load.shards) {
        std::string shard;
        if (!fsio::readFile(path, shard)) {
            ++load.recordsDiscarded;
            continue;
        }
        const auto *bytes =
            reinterpret_cast<const unsigned char *>(shard.data());
        size_t off = 0;
        while (off + 12 <= shard.size()) {
            JobResult r;
            size_t consumed = 0;
            if (!decodeCheckpointRecord(bytes + off, shard.size() - off,
                                        r, &consumed) ||
                r.id >= expect.jobCount) {
                break;
            }
            r.resumed = true;
            // A job can legitimately appear twice (its first record
            // sat beyond a corrupt region of an earlier resume and it
            // re-ran); deterministic jobs make the copies identical,
            // and the last one wins either way.
            load.present[r.id] = true;
            load.restored[r.id] = std::move(r);
            ++load.recordsLoaded;
            off += consumed;
        }
        validBytes = off;
        if (off < shard.size())
            ++load.recordsDiscarded; // Torn/corrupt tail dropped.
    }
    return load;
}

bool
CheckpointWriter::start(const std::string &dir,
                        const CheckpointManifest &manifest, unsigned shards,
                        const CheckpointLoad &load)
{
    if (!fsio::makeDirs(dir)) {
        _error = "cannot create checkpoint directory " + dir;
        return false;
    }
    // A crash inside atomicWriteFile leaves a *.tmp behind (the unlink
    // on the failure paths only runs if the process survives). Sweep
    // them on open — a temp file is by construction uncommitted state.
    for (const std::string &name : fsio::listDir(dir)) {
        if (name.size() > 4 &&
            name.compare(name.size() - 4, 4, ".tmp") == 0) {
            fsio::removeFile(dir + "/" + name);
        }
    }
    if (load.valid) {
        // Cut corrupt tails so new appends start at a record boundary.
        for (const auto &[path, validBytes] : load.shards) {
            const std::string &p = path;
            const u64 bytes = validBytes;
            if (!retryDisk([&] { return fsio::truncateFile(p, bytes); },
                           fsio::fnv1a64(p.data(), p.size()))) {
                _error = "cannot truncate " + p;
                return false;
            }
        }
    } else {
        // Stale or foreign checkpoint: wipe shards *before* the new
        // manifest commits, so a crash between the two steps leaves
        // either the old rejected state or an empty valid one.
        for (const auto &[path, validBytes] : load.shards) {
            (void)validBytes;
            const std::string &p = path;
            if (!retryDisk([&] { return fsio::removeFile(p); },
                           fsio::fnv1a64(p.data(), p.size()))) {
                _error = "cannot remove stale shard " + p;
                return false;
            }
        }
        if (!retryDisk([&] { return fsio::fsyncDir(dir); }, 0x1001)) {
            _error = "cannot fsync " + dir;
            return false;
        }
        if (!retryDisk(
                [&] {
                    return fsio::atomicWriteFile(
                        dir + "/manifest.bin",
                        encodeCheckpointManifest(manifest));
                },
                0x1002)) {
            _error = "cannot write manifest in " + dir;
            return false;
        }
        // Operator-facing mirror; never parsed, so never retried.
        fsio::atomicWriteFile(
            dir + "/manifest.txt",
            csprintf("campaign: %s\njobs: %llu\nidentity: %016llx\n"
                     "format: %u\n",
                     manifest.name.c_str(),
                     static_cast<unsigned long long>(manifest.jobCount),
                     static_cast<unsigned long long>(manifest.identity),
                     kCheckpointFormatVersion));
    }

    _logs = std::vector<fsio::AppendLog>(std::max(1u, shards));
    for (unsigned k = 0; k < _logs.size(); ++k) {
        const std::string path = dir + "/" + shardFileName(k);
        if (!retryDisk([&] { return _logs[k].open(path); }, 0x2000 + k)) {
            _error = "cannot open " + path;
            return false;
        }
    }
    if (!retryDisk([&] { return fsio::fsyncDir(dir); }, 0x1003)) {
        _error = "cannot fsync " + dir;
        return false;
    }
    return true;
}

bool
CheckpointWriter::append(unsigned shard, const JobResult &r)
{
    if (shard >= _logs.size() || !_logs[shard].isOpen())
        return false;
    fsio::AppendLog &log = _logs[shard];
    BackoffPolicy policy;
    policy.initialMs = 1;
    policy.maxMs = 50;
    policy.multiplier = 4;
    policy.maxAttempts = 6;
    policy.seed = 0x3000 + shard;
    Backoff backoff(policy);
    for (;;) {
        // A failed append can leave a partial record durable; snapshot
        // the boundary and cut back to it before retrying, so a
        // retried record never lands after garbage that would hide it
        // (and everything behind it) from the stop-at-first-bad-record
        // loader.
        const long long mark = log.offset();
        bool ok = false;
        try {
            chaos::probeAlloc();
            const std::string record = encodeCheckpointRecord(r);
            ok = mark >= 0 && log.append(record.data(), record.size());
        } catch (const std::bad_alloc &) {
            ok = false;
        }
        if (ok)
            return true;
        if (mark >= 0)
            log.truncateTo(static_cast<u64>(mark));
        if (!backoff.sleep())
            return false;
    }
}

void
CheckpointWriter::close()
{
    for (auto &log : _logs)
        log.close();
    _logs.clear();
}

bool
setupCheckpoint(const CampaignOptions &options,
                const std::vector<Job> &jobs, unsigned shards,
                CampaignResult &result, CheckpointWriter &writer)
{
    if (options.checkpointDir.empty())
        return false;
    const size_t total = jobs.size();
    const CheckpointManifest manifest{identityHash(options, jobs), total,
                                      options.name};
    CheckpointLoad load = loadCheckpoint(options.checkpointDir, manifest);
    if (load.manifestFound && !load.valid) {
        warn("campaign %s: checkpoint %s rejected (%s); re-running "
             "all %zu jobs",
             options.name.c_str(), options.checkpointDir.c_str(),
             load.reason.c_str(), total);
    }
    if (load.valid) {
        for (size_t i = 0; i < total; ++i) {
            if (load.present[i]) {
                result.jobs[i] = load.restored[i];
                ++result.resumedJobs;
            }
        }
        result.discardedRecords = load.recordsDiscarded;
        if (result.resumedJobs || load.recordsDiscarded) {
            inform("campaign %s: resumed %u/%zu jobs from %s "
                   "(%llu corrupt record region(s) discarded)",
                   options.name.c_str(), result.resumedJobs, total,
                   options.checkpointDir.c_str(),
                   static_cast<unsigned long long>(
                       load.recordsDiscarded));
        }
    }
    if (!writer.start(options.checkpointDir, manifest, shards, load)) {
        fatal("campaign %s: cannot checkpoint to %s: %s",
              options.name.c_str(), options.checkpointDir.c_str(),
              writer.error().c_str());
    }
    return true;
}

} // namespace aos::campaign
