#include "faultinject/injector.hh"

namespace aos::faultinject {

namespace {

/**
 * A 33-bit stand-in address for the object a compressed record
 * protects: the truncated-compare math of bounds::inBounds() sees it
 * exactly as it sees the object's real base pointer.
 */
Addr
representativeAddr(bounds::Compressed record)
{
    return bounds::decompress(record).lower;
}

} // namespace

FaultInjector::FaultInjector(const FaultPlan &plan, const InjectorEnv &env)
    : _plan(plan), _env(env)
{
    _stats.armed = true;
    _stats.scheduled = _plan.scheduled();
}

void
FaultInjector::record(FaultType type, FaultOutcome outcome, u64 trigger,
                      u64 detail)
{
    FaultEvent event;
    event.type = type;
    event.outcome = outcome;
    event.trigger = trigger;
    event.detail = detail;
    event.tenant = _env.tenantId;
    _events.push_back(event);
    _stats.note(event);
}

void
FaultInjector::noteSimulatorFault(FaultType type, u64 detail)
{
    record(type, FaultOutcome::kSimulatorFault, 0, detail);
}

// ---- op-domain dispatch -------------------------------------------------

void
FaultInjector::onOp(u64 index, ir::MicroOp &op)
{
    _plan.due(TriggerDomain::kOpIndex, index, _due);
    for (ScheduledFault *fault : _due)
        fire(*fault, index);

    if (!_pendingPtr.empty() && eligiblePointerVictim(op)) {
        const ScheduledFault fault = _pendingPtr.front();
        _pendingPtr.pop_front();
        applyPointerFault(fault, op);
    }
}

void
FaultInjector::fire(ScheduledFault &fault, u64 counter)
{
    fault.fired = true;
    switch (fault.type) {
      case FaultType::kPtrPacFlip:
      case FaultType::kPtrVaFlip:
        // Applied to the next eligible op that comes by.
        _pendingPtr.push_back(fault);
        break;
      case FaultType::kMcqStall:
        // Hold the MCQ "full" for a finite window; the core must
        // stall on back-pressure and resume afterwards.
        _stallCycles += 64 + fault.a % 192;
        record(fault.type, FaultOutcome::kTolerated, counter,
               _stallCycles);
        break;
      case FaultType::kMcuDropResp:
        ++_pendingDrops;
        record(fault.type, FaultOutcome::kTolerated, counter, 0);
        break;
      case FaultType::kMcuDupResp:
        ++_pendingDups;
        record(fault.type, FaultOutcome::kTolerated, counter, 0);
        break;
      case FaultType::kCollisionStorm:
        fireCollisionStorm(fault, counter);
        break;
      case FaultType::kHbtBoundsFlip:
      case FaultType::kHbtRehome:
      case FaultType::kHbtLineZap:
        fireHbtCorruption(fault, counter);
        break;
      case FaultType::kDramLineFlip: // bounds-access domain
      case FaultType::kNumTypes:
        break;
    }
}

// ---- pointer faults -----------------------------------------------------

bool
FaultInjector::eligiblePointerVictim(const ir::MicroOp &op) const
{
    const bool aos = _env.model == ProtectionModel::kAos ||
                     _env.model == ProtectionModel::kPaAos;
    if (_env.model == ProtectionModel::kPaAos &&
        op.kind == ir::OpKind::kAutm) {
        // A pointer authenticated right after being loaded: the
        // corrupted value meets autm before any dereference.
        return _env.layout.signed_(op.addr);
    }
    if (op.kind != ir::OpKind::kLoad && op.kind != ir::OpKind::kStore)
        return false;
    if (aos)
        return _env.layout.signed_(op.addr);
    // Without AOS metadata, target heap accesses whose chunk the
    // classification oracle knows.
    return op.chunkBase != 0;
}

void
FaultInjector::applyPointerFault(const ScheduledFault &fault,
                                 ir::MicroOp &op)
{
    const Addr original = op.addr;
    if (fault.type == FaultType::kPtrPacFlip) {
        const unsigned bit =
            static_cast<unsigned>(fault.a % (_env.layout.pacSize() + 2));
        const Addr corrupt = _env.layout.flipMetaBit(original, bit);
        const FaultOutcome outcome = classifyMetaFlip(
            original, corrupt, op.kind == ir::OpKind::kAutm);
        op.addr = corrupt;
        record(fault.type, outcome, fault.at, bit);
    } else {
        // Flip within the 33-bit span the bounds compression covers;
        // higher VA bits never hold heap addresses here.
        const unsigned bit = static_cast<unsigned>(fault.b % 33);
        const Addr corrupt = _env.layout.flipVaBit(original, bit);
        const FaultOutcome outcome = classifyVaFlip(corrupt, op.chunkBase);
        op.addr = corrupt;
        record(fault.type, outcome, fault.at, bit);
    }
}

FaultOutcome
FaultInjector::classifyMetaFlip(Addr original, Addr corrupt,
                                bool autm_op) const
{
    const auto &layout = _env.layout;
    const bool aos = _env.model == ProtectionModel::kAos ||
                     _env.model == ProtectionModel::kPaAos;
    if (!aos) {
        // The metadata bits of an unsigned pointer are stripped before
        // the access: the flip is absorbed, and nothing detects it.
        return FaultOutcome::kTolerated;
    }
    if (!layout.signed_(corrupt)) {
        // The AHC was cleared: the pointer now looks unsigned and the
        // MCU skips its check. Only autm authentication (PA+AOS,
        // SIV-A/SVII-B) catches the stripped signature.
        if (_env.model == ProtectionModel::kPaAos && autm_op)
            return FaultOutcome::kDetectedAutm;
        return FaultOutcome::kSilentCorruption;
    }
    if (layout.pac(corrupt) == layout.pac(original)) {
        // AHC-only change with the AHC still nonzero: the AHC feeds
        // way prediction, not correctness.
        return FaultOutcome::kTolerated;
    }
    // Wrong PAC: the bounds check runs against the wrong HBT row. A
    // PAC collision there passes the check silently (the paper's
    // residual false-negative rate); otherwise the check misses.
    if (_env.hbt &&
        _env.hbt->check(layout.pac(corrupt), layout.strip(corrupt), 0,
                        nullptr)) {
        return FaultOutcome::kSilentCorruption;
    }
    return FaultOutcome::kDetectedBounds;
}

FaultOutcome
FaultInjector::classifyVaFlip(Addr corrupt, Addr chunk_base) const
{
    const auto &layout = _env.layout;
    const Addr raw = layout.strip(corrupt);
    if (chunk_base && _env.inChunk && _env.inChunk(chunk_base, raw)) {
        // Still inside the object: sub-object corruption is invisible
        // to every bounds mechanism.
        return FaultOutcome::kSilentCorruption;
    }
    switch (_env.model) {
      case ProtectionModel::kAos:
      case ProtectionModel::kPaAos:
        if (_env.hbt &&
            _env.hbt->check(layout.pac(corrupt), raw, 0, nullptr)) {
            return FaultOutcome::kSilentCorruption;
        }
        return FaultOutcome::kDetectedBounds;
      case ProtectionModel::kWatchdog:
        // Watchdog checks the raw address against per-chunk bounds.
        return FaultOutcome::kDetectedBounds;
      case ProtectionModel::kPa:
      case ProtectionModel::kNone:
        return FaultOutcome::kSilentCorruption;
    }
    return FaultOutcome::kSilentCorruption;
}

// ---- metadata faults ----------------------------------------------------

FaultOutcome
FaultInjector::classifyRecordChange(bounds::Compressed before,
                                    bounds::Compressed after) const
{
    if (after == before)
        return FaultOutcome::kTolerated;
    if (before == bounds::kEmpty) {
        // A bogus record materialized out of an empty slot: it can
        // only ever grant accesses that should have faulted.
        return FaultOutcome::kSilentCorruption;
    }
    const Addr rep = representativeAddr(before);
    if (bounds::inBounds(after, rep)) {
        // The mutated record still accepts the object's base: the
        // drifted bounds are trusted without complaint.
        return FaultOutcome::kSilentCorruption;
    }
    return FaultOutcome::kDetectedBounds;
}

void
FaultInjector::fireHbtCorruption(const ScheduledFault &fault, u64 counter)
{
    bounds::HashedBoundsTable *hbt = _env.hbt;
    if (!hbt) {
        record(fault.type, FaultOutcome::kTolerated, counter, 0);
        return;
    }
    const auto victim = hbt->findOccupied(fault.a % hbt->rows());
    if (!victim) {
        // Nothing to corrupt yet (empty table): the fault is absorbed.
        record(fault.type, FaultOutcome::kTolerated, counter, 0);
        return;
    }

    switch (fault.type) {
      case FaultType::kHbtBoundsFlip: {
        // Flip one bit of the Size/LowBnd fields (bits 60..0).
        const bounds::Compressed after =
            victim->record ^ (u64{1} << (fault.b % 61));
        hbt->corruptRecord(victim->pac, victim->way, victim->slot, after);
        record(fault.type, classifyRecordChange(victim->record, after),
               counter, fault.b % 61);
        return;
      }
      case FaultType::kHbtLineZap: {
        const unsigned lost = hbt->zapLine(victim->pac, victim->way);
        // The victim's record is among the zapped: its next bounds
        // check or bndclr cannot find it.
        record(fault.type, FaultOutcome::kDetectedBounds, counter, lost);
        return;
      }
      case FaultType::kHbtRehome: {
        // Tag corruption: the record leaves its row and lands in the
        // one differing in a single PAC bit (or is lost if that row
        // is full).
        const u64 to =
            victim->pac ^ (u64{1} << (fault.b % _env.layout.pacSize()));
        hbt->corruptRecord(victim->pac, victim->way, victim->slot,
                           bounds::kEmpty);
        hbt->insert(to, victim->record);
        const Addr rep = representativeAddr(victim->record);
        const FaultOutcome outcome =
            hbt->check(victim->pac, rep, 0, nullptr)
                ? FaultOutcome::kSilentCorruption
                : FaultOutcome::kDetectedBounds;
        record(fault.type, outcome, counter, to);
        return;
      }
      default:
        record(fault.type, FaultOutcome::kTolerated, counter, 0);
        return;
    }
}

void
FaultInjector::fireCollisionStorm(const ScheduledFault &fault, u64 counter)
{
    bounds::HashedBoundsTable *hbt = _env.hbt;
    if (!hbt) {
        record(fault.type, FaultOutcome::kTolerated, counter, 0);
        return;
    }
    const u64 row = fault.a % hbt->rows();
    // Bogus allocations in a reserved low region (below the simulated
    // heap base) so they can never alias live program chunks.
    const Addr region = 0x0100'0000ull;
    const unsigned target = hbt->recordsPerWay() * hbt->ways() + 4;
    unsigned inserted = 0;
    unsigned resizes = 0;
    for (unsigned i = 0; i < target; ++i) {
        const Addr base =
            region + ((fault.b + i) % 0x10000) * 16;
        const bounds::Compressed rec = bounds::compress(base, 32);
        if (hbt->insert(row, rec)) {
            ++inserted;
            continue;
        }
        // Row full: the OS doubles the table (SIV-D) and the storm
        // continues against the resized row; cap at two resizes.
        if (resizes >= 2)
            break;
        if (!hbt->resizing()) {
            hbt->beginResize();
            ++resizes;
        }
        if (hbt->insert(row, rec))
            ++inserted;
    }
    record(fault.type, FaultOutcome::kTolerated, counter, inserted);
}

// ---- bounds-access domain (DRAM flips) ----------------------------------

void
FaultInjector::onBoundsAccess(Addr line_addr, bool write)
{
    (void)write;
    ++_boundsAccesses;
    _plan.due(TriggerDomain::kBoundsAccess, _boundsAccesses, _due);
    for (ScheduledFault *fault : _due) {
        fault->fired = true;
        fireDramFlip(*fault, _boundsAccesses, line_addr);
    }
}

void
FaultInjector::fireDramFlip(const ScheduledFault &fault, u64 counter,
                            Addr line_addr)
{
    bounds::HashedBoundsTable *hbt = _env.hbt;
    if (!hbt) {
        record(fault.type, FaultOutcome::kTolerated, counter, 0);
        return;
    }
    const unsigned slot =
        static_cast<unsigned>(fault.a % hbt->recordsPerWay());
    const u64 mask = u64{1} << (fault.b % 61);
    const auto hit = hbt->corruptLineAtAddr(line_addr, slot, mask);
    if (!hit) {
        // The accessed line is not backed by any table (e.g. the old
        // table of a just-finished resize): the flip strikes dead
        // storage.
        record(fault.type, FaultOutcome::kTolerated, counter, 0);
        return;
    }
    record(fault.type, classifyRecordChange(hit->first, hit->second),
           counter, mask);
}

// ---- MCU hooks ----------------------------------------------------------

void
FaultInjector::onMcuTick(Tick now)
{
    (void)now;
    if (_stallCycles > 0)
        --_stallCycles;
}

bool
FaultInjector::stallQueue()
{
    return _stallCycles > 0;
}

bool
FaultInjector::dropWayResponse(u64 seq, unsigned way)
{
    (void)seq;
    (void)way;
    if (_pendingDrops == 0)
        return false;
    --_pendingDrops;
    return true;
}

bool
FaultInjector::duplicateWayResponse(u64 seq, unsigned way)
{
    (void)seq;
    (void)way;
    if (_pendingDups == 0)
        return false;
    --_pendingDups;
    return true;
}

} // namespace aos::faultinject
