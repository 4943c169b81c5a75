#include "os/scheduler.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace aos::os {

u64
SchedulerResult::latencyPercentile(unsigned pct) const
{
    if (latencies.empty())
        return 0;
    std::vector<u64> sorted(latencies);
    std::sort(sorted.begin(), sorted.end());
    const size_t idx = (sorted.size() - 1) * std::min(pct, 100u) / 100;
    return sorted[idx];
}

std::string
SchedulerResult::functionalFingerprint() const
{
    std::string out;
    for (const auto &tenant : tenants) {
        out += "t";
        out += std::to_string(tenant.id);
        out += "{";
        out += tenant.fingerprint();
        out += "}";
    }
    return out;
}

Scheduler::Scheduler(const SchedulerConfig &config)
    : _config(config), _machine(config.options),
      _arrivalRng(0x5eeded ^ (config.seed * 0x9e3779b97f4a7c15ull))
{
}

Scheduler::~Scheduler() = default;

u64
Scheduler::now() const
{
    return _machine.core().stats().cycles + _idleCycles;
}

TenantContext *
Scheduler::tenant(u32 slot)
{
    return slot < _slots.size() ? _slots[slot].get() : nullptr;
}

size_t
Scheduler::liveTenants() const
{
    size_t n = 0;
    for (const auto &slot : _slots)
        if (slot && !slot->terminated())
            ++n;
    return n;
}

u32
Scheduler::spawn(const TenantConfig &config)
{
    u32 slot = static_cast<u32>(_slots.size());
    for (u32 i = 0; i < _slots.size(); ++i) {
        if (!_slots[i] || _slots[i]->terminated()) {
            slot = i;
            break;
        }
    }
    panic_if(slot >= kMaxTenants, "tenant fleet exceeds %u slots",
             kMaxTenants);

    if (slot < _slots.size() && _slots[slot])
        _retiredStats.push_back(_slots[slot]->stats());

    auto tenant = std::make_unique<TenantContext>(slot, config,
                                                  _config.options,
                                                  &_machine.pa());
    TenantContext *raw = tenant.get();
    if (slot == _slots.size())
        _slots.push_back(std::move(tenant));
    else
        _slots[slot] = std::move(tenant);

    // The instrumentation passes sign through the shared key registers,
    // so warmup must already run under the new tenant's keys.
    switchTo(*raw);
    raw->warmup(_machine);
    refreshForeignRanges();
    return slot;
}

void
Scheduler::kill(u32 slot)
{
    TenantContext *t = tenant(slot);
    if (t && !t->terminated())
        terminate(*t);
}

void
Scheduler::switchTo(TenantContext &t)
{
    if (_machine.bind(t))
        ++_result.contextSwitches;
}

u64
Scheduler::runSlice(TenantContext &t)
{
    switchTo(t);
    cpu::OoOCore &core = _machine.core();
    const u64 before = core.stats().committed;
    bool killed = false;
    try {
        // Bound in issued ops so a prior kill-flush (issued > committed)
        // never shortens this tenant's quantum.
        core.run(*t.stream(), core.issued() + _config.quantumOps);
    } catch (const ProcessTerminated &) {
        // AOS exception under FaultPolicy::kTerminate: process-kill
        // pipeline flush, then deterministic teardown.
        core.flush();
        killed = true;
    }
    const u64 delta = core.stats().committed - before;
    t.committedOps += delta;
    ++t.slices;
    ++_result.slices;
    if (killed)
        terminate(t);
    return delta;
}

void
Scheduler::terminate(TenantContext &t)
{
    // Queued requests die with the process: counted, never dropped.
    t.requestsShed += t.runQueue.size();
    ++_result.terminations;
    if (_machine.bound() == &t)
        _machine.unbind();
    t.retire();
    refreshForeignRanges();
}

void
Scheduler::refreshForeignRanges()
{
    for (auto &slot : _slots) {
        if (!slot || slot->terminated() || !slot->attack())
            continue;
        std::vector<std::pair<Addr, Addr>> ranges;
        for (const auto &other : _slots) {
            if (other && other.get() != slot.get() &&
                !other->terminated())
                ranges.push_back(other->heapRange());
        }
        slot->attack()->setForeignRanges(std::move(ranges));
    }
}

void
Scheduler::creditService(TenantContext &t, u64 delta)
{
    while (delta > 0 && !t.runQueue.empty()) {
        Request &req = t.runQueue.front();
        const u64 take = std::min(delta, req.remaining);
        req.remaining -= take;
        delta -= take;
        if (req.remaining == 0) {
            _result.latencies.push_back(now() - req.arrival);
            ++t.requestsServed;
            t.runQueue.pop_front();
        }
    }
    // Committed ops beyond the queued demand are the tenant's own
    // background work; they serve nobody.
}

void
Scheduler::runFixedWork()
{
    bool progress = true;
    while (progress) {
        progress = false;
        for (auto &slot : _slots) {
            TenantContext *t = slot.get();
            if (!t || t->terminated() || t->streamDry())
                continue;
            const u64 delta = runSlice(*t);
            if (t->terminated()) {
                progress = true;
                continue;
            }
            if (delta == 0)
                t->markStreamDry();
            else
                progress = true;
        }
    }
}

void
Scheduler::runRequests()
{
    const double mean_inter =
        1000.0 / std::max(_config.arrivalsPerKCycle, 1e-9);
    const auto inter_arrival = [&]() -> u64 {
        const double gap =
            -std::log(1.0 - _arrivalRng.uniform()) * mean_inter;
        return std::max<u64>(1, static_cast<u64>(gap));
    };
    const auto schedulable = [](const TenantContext *t) {
        return t && !t->terminated() && !t->streamDry();
    };
    const auto admit = [&](u64 when) {
        ++_result.requestsArrived;
        std::vector<TenantContext *> live;
        for (auto &slot : _slots)
            if (schedulable(slot.get()))
                live.push_back(slot.get());
        if (live.empty()) {
            ++_orphanShed;
            return;
        }
        TenantContext &t = *live[_arrivalRng.below(live.size())];
        if (t.runQueue.size() >= _config.runQueueDepth) {
            // Admission control: the bounded queue is full.
            ++t.requestsShed;
            return;
        }
        Request req;
        req.arrival = when;
        req.ops = _arrivalRng.range(_config.requestOpsMin,
                                    std::max(_config.requestOpsMin,
                                             _config.requestOpsMax));
        req.remaining = req.ops;
        t.runQueue.push_back(req);
    };

    u64 generated = 0;
    u64 next_arrival = now() + inter_arrival();
    size_t rr = 0;
    while (true) {
        while (generated < _config.totalRequests &&
               next_arrival <= now()) {
            admit(next_arrival);
            ++generated;
            next_arrival += inter_arrival();
        }

        TenantContext *pick = nullptr;
        const size_t n = _slots.size();
        for (size_t k = 0; n != 0 && k < n; ++k) {
            TenantContext *t = _slots[(rr + k) % n].get();
            if (schedulable(t) && !t->runQueue.empty()) {
                pick = t;
                rr = (rr + k + 1) % n;
                break;
            }
        }
        if (!pick) {
            if (generated >= _config.totalRequests)
                break;
            bool any_schedulable = false;
            for (auto &slot : _slots)
                any_schedulable |= schedulable(slot.get());
            if (!any_schedulable) {
                // Every process is dead or dry: the rest of the open
                // load has nowhere to go.
                _orphanShed += _config.totalRequests - generated;
                _result.requestsArrived +=
                    _config.totalRequests - generated;
                break;
            }
            // Everyone is idle: jump the clock to the next arrival.
            const u64 t_now = now();
            _idleCycles +=
                next_arrival > t_now ? next_arrival - t_now : 1;
            continue;
        }

        const u64 delta = runSlice(*pick);
        if (pick->terminated())
            continue;
        if (delta == 0) {
            // A bounded stream ran dry under open load: its queue can
            // never drain, so shed it rather than spin.
            pick->markStreamDry();
            pick->requestsShed += pick->runQueue.size();
            pick->runQueue.clear();
        } else {
            creditService(*pick, delta);
        }
    }
}

void
Scheduler::collect(SchedulerResult &out)
{
    out.core = _machine.core().stats();
    out.cycles = out.core.cycles;
    out.idleCycles = _idleCycles;
    out.tenants = _retiredStats;
    for (const auto &slot : _slots)
        if (slot)
            out.tenants.push_back(slot->stats());
    out.requestsServed = 0;
    out.requestsShed = _orphanShed;
    for (const auto &t : out.tenants) {
        out.requestsServed += t.requestsServed;
        out.requestsShed += t.requestsShed;
    }
}

SchedulerResult
Scheduler::run()
{
    if (_config.totalRequests == 0)
        runFixedWork();
    else
        runRequests();
    _machine.unbind();
    SchedulerResult out = std::move(_result);
    _result = SchedulerResult{};
    collect(out);
    return out;
}

} // namespace aos::os
