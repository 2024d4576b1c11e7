/**
 * @file
 * The instruction record produced by workload generators and consumed by
 * the core model, and the abstract workload (trace source) interface.
 *
 * tacsim is trace-driven in the ChampSim sense: the functional path
 * (what addresses are touched, in what order, with what dependences) is
 * produced by a generator, and the core model adds timing.
 */

#ifndef TACSIM_CORE_TRACE_HH
#define TACSIM_CORE_TRACE_HH

#include <memory>
#include <string>

#include "common/types.hh"

namespace tacsim {

/** One dynamic instruction. */
struct TraceRecord
{
    enum class Kind : std::uint8_t
    {
        NonMem, ///< ALU/branch/etc. — completes in the pipeline
        Load,
        Store,
    };

    Addr ip = 0;
    Kind kind = Kind::NonMem;
    Addr vaddr = 0; ///< effective address for Load/Store

    /**
     * Address depends on the most recent preceding load (pointer
     * chasing): the core may not issue this access until that load's
     * data returns.
     */
    bool dependsOnPrevLoad = false;

    bool isLoad() const { return kind == Kind::Load; }
    bool isStore() const { return kind == Kind::Store; }
    bool isMem() const { return kind != Kind::NonMem; }
};

/** An endless instruction stream. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Produce the next dynamic instruction. */
    virtual TraceRecord next() = 0;

    /** Benchmark name ("pr", "mcf", ...). */
    virtual std::string name() const = 0;

    /** Virtual footprint in bytes (for reports). */
    virtual Addr footprint() const = 0;
};

} // namespace tacsim

#endif // TACSIM_CORE_TRACE_HH
