/**
 * @file
 * FaultInjector: executes a FaultPlan against a live simulation and
 * classifies every fired fault into a FaultOutcome (DESIGN.md §8).
 *
 * The injector sits behind three hook surfaces:
 *
 *   - the FaultingStream calls onOp() once per measured source op
 *     (op-index trigger domain; pointer faults mutate op.addr here);
 *   - memsim's bounds tap calls onBoundsAccess() for every
 *     bounds-metadata access (DRAM-flip trigger domain);
 *   - the MCU calls the McuFaultHooks overrides (stall / drop / dup).
 *
 * Classification is functional and happens at fire time: the injector
 * asks the same structures the timing model trusts (the HBT, the
 * pointer layout, the allocator's chunk oracle) what the mechanism
 * will observe, so the verdict is deterministic and independent of how
 * far the pipeline has drained. The corrupted state still flows into
 * the timing simulation — a flipped pointer really is bounds-checked
 * against the wrong row — which is what the graceful-degradation
 * sweeps exercise.
 */

#ifndef AOS_FAULTINJECT_INJECTOR_HH
#define AOS_FAULTINJECT_INJECTOR_HH

#include <deque>
#include <functional>
#include <vector>

#include "bounds/hashed_bounds_table.hh"
#include "faultinject/fault_plan.hh"
#include "ir/micro_op.hh"
#include "pa/pointer_layout.hh"

namespace aos::faultinject {

/** The structures classification may consult (all non-owning). */
struct InjectorEnv
{
    pa::PointerLayout layout{16, 46};
    ProtectionModel model = ProtectionModel::kNone;
    bounds::HashedBoundsTable *hbt = nullptr; //!< Null unless AOS.

    /** True iff @p addr lies inside the live chunk based at @p base. */
    std::function<bool(Addr base, Addr addr)> inChunk;

    /**
     * Tenant-targeting domain (multi-tenant scheduler): the injector
     * perturbs only this tenant's stream/HBT, and every FaultEvent it
     * records carries the id — the isolation audit cross-checks that
     * no detection is ever attributed to a non-targeted tenant.
     */
    u32 tenantId = 0;
};

class FaultInjector : public McuFaultHooks
{
  public:
    FaultInjector(const FaultPlan &plan, const InjectorEnv &env);

    // ---- stream side (FaultingStream) -------------------------------
    /**
     * Observe measured source op @p index; fires due op-domain faults
     * and may corrupt @p op (pointer faults). Never throws.
     */
    void onOp(u64 index, ir::MicroOp &op);

    // ---- memsim tap -------------------------------------------------
    void onBoundsAccess(Addr line_addr, bool write);

    // ---- MCU hooks --------------------------------------------------
    void onMcuTick(Tick now) override;
    bool stallQueue() override;
    bool dropWayResponse(u64 seq, unsigned way) override;
    bool duplicateWayResponse(u64 seq, unsigned way) override;

    // ---- results ----------------------------------------------------
    /** Record an escaped simulator failure (caught by the harness). */
    void noteSimulatorFault(FaultType type, u64 detail = 0);

    const std::vector<FaultEvent> &events() const { return _events; }
    const FaultStats &stats() const { return _stats; }
    const FaultPlan &plan() const { return _plan; }

  private:
    void fire(ScheduledFault &fault, u64 counter);
    void record(FaultType type, FaultOutcome outcome, u64 trigger,
                u64 detail);

    // Pointer faults wait for the next eligible op after their trigger.
    bool eligiblePointerVictim(const ir::MicroOp &op) const;
    void applyPointerFault(const ScheduledFault &fault, ir::MicroOp &op);
    FaultOutcome classifyMetaFlip(Addr original, Addr corrupt,
                                  bool autm_op) const;
    FaultOutcome classifyVaFlip(Addr corrupt, Addr chunk_base) const;

    // Metadata faults pick a deterministic occupied victim record.
    void fireHbtCorruption(const ScheduledFault &fault, u64 counter);
    void fireDramFlip(const ScheduledFault &fault, u64 counter,
                      Addr line_addr);
    void fireCollisionStorm(const ScheduledFault &fault, u64 counter);
    FaultOutcome classifyRecordChange(bounds::Compressed before,
                                      bounds::Compressed after) const;

    FaultPlan _plan;
    InjectorEnv _env;

    std::vector<FaultEvent> _events;
    FaultStats _stats;

    std::vector<ScheduledFault *> _due; //!< Scratch for plan queries.
    std::deque<ScheduledFault> _pendingPtr; //!< Armed pointer faults.
    u64 _boundsAccesses = 0;
    u64 _stallCycles = 0;   //!< Remaining forced-full MCQ cycles.
    unsigned _pendingDrops = 0;
    unsigned _pendingDups = 0;
};

} // namespace aos::faultinject

#endif // AOS_FAULTINJECT_INJECTOR_HH
