#include "sim/verify.hh"

#include <sstream>

#include "sim/system.hh"

namespace tacsim {
namespace verify {

InvariantViolation::InvariantViolation(std::string component,
                                       std::string invariant,
                                       std::string detail, std::int64_t set,
                                       std::int64_t way)
    : std::runtime_error(format(component, invariant, detail, set, way)),
      component_(std::move(component)),
      invariant_(std::move(invariant)),
      detail_(std::move(detail)),
      set_(set),
      way_(way)
{}

std::string
InvariantViolation::format(const std::string &component,
                           const std::string &invariant,
                           const std::string &detail, std::int64_t set,
                           std::int64_t way)
{
    std::ostringstream os;
    os << "InvariantViolation[" << component << "/" << invariant << "]";
    if (set >= 0)
        os << " set=" << set;
    if (way >= 0)
        os << " way=" << way;
    os << ": " << detail;
    return os.str();
}

Checker::Checker(System &sys, std::uint64_t eventInterval)
    : sys_(sys), interval_(eventInterval)
{}

void
Checker::maybeCheck(std::uint64_t eventsExecuted)
{
    if (interval_ == 0 || eventsExecuted - lastCheckedAt_ < interval_)
        return;
    lastCheckedAt_ = eventsExecuted;
    checkAll();
}

void
Checker::checkAll()
{
    ++checks_;
    checkEventQueue();
    for (unsigned c = 0; c < sys_.config().numCores; ++c) {
        sys_.l1d(c).checkInvariants();
        sys_.l2(c).checkInvariants();
        sys_.dtlb(c).checkInvariants();
        sys_.stlb(c).checkInvariants();
        sys_.ptw(c).checkInvariants();
        checkTlbAgainstPageTable(sys_.dtlb(c));
        checkTlbAgainstPageTable(sys_.stlb(c));
    }
    sys_.llc().checkInvariants();
    sys_.dram().checkInvariants();
}

void
Checker::checkEventQueue() const
{
    const EventQueue &eq = sys_.eventQueue();
    if (eq.nextEventCycle() < eq.now()) {
        std::ostringstream os;
        os << "earliest pending event at cycle " << eq.nextEventCycle()
           << " is behind now=" << eq.now();
        throw InvariantViolation("EventQueue", "time-monotone", os.str());
    }
}

void
Checker::checkTlbAgainstPageTable(const Tlb &tlb) const
{
    tlb.forEachEntry([this, &tlb](std::uint16_t asid, Addr vpn, Addr pfn,
                                  PageSize ps) {
        if (asid >= sys_.threads()) {
            std::ostringstream os;
            os << "entry for asid " << asid << " but only "
               << sys_.threads() << " address spaces exist (vpn=0x"
               << std::hex << vpn << ")";
            throw InvariantViolation(tlb.name(), "asid-range", os.str());
        }
        const Addr vaddr = vpn << pageShift(ps);
        // Walking an already-mapped page is side-effect free; a VPN the
        // page table has never seen gets a fresh frame, which then
        // mismatches the cached PFN — also a violation, as intended.
        const PageTable::WalkResult g = sys_.pageTable(asid).walk(vaddr);
        Addr truth;
        PageSize truthSize = g.pageSize;
        if (PageTable *host = sys_.hostPageTable()) {
            // Nested mode: the cached translation is guest-VA to
            // host-PA at the granule both dimensions support.
            const PageTable::WalkResult h = host->walk(g.dataPaddr);
            truthSize = minPageSize(g.pageSize, h.pageSize);
            truth = pageAlign(h.dataPaddr, truthSize);
        } else {
            truth = pageAlign(g.dataPaddr, truthSize);
        }
        if (ps != truthSize) {
            std::ostringstream os;
            os << "asid " << asid << " vaddr 0x" << std::hex << vaddr
               << std::dec << " cached at " << pageSizeName(ps)
               << " but the mapping granule is "
               << pageSizeName(truthSize);
            throw InvariantViolation(tlb.name(), "tlb-pagesize", os.str());
        }
        if (pfn != truth) {
            std::ostringstream os;
            os << "asid " << asid << " vpn 0x" << std::hex << vpn
               << " cached pfn 0x" << pfn << " but page table maps 0x"
               << truth;
            throw InvariantViolation(tlb.name(), "tlb-pagetable", os.str());
        }
    });
}

} // namespace verify
} // namespace tacsim
