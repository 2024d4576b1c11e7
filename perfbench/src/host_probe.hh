/**
 * @file
 * The host-speed probe: fixed work, independent of the simulator, timed
 * between the points so that the end-to-end metrics can be rescaled to a
 * reference host speed.
 *
 * A shared host runs the benchmark at a speed that drifts by up to 2x
 * over minutes, and no statistic over one run's repeats
 * removes a slowdown that lasts the whole run. The probe slows with the
 * host but not with a change to the simulator, so dividing a point's time
 * by the probe's time around it cancels the host's drift and keeps the
 * simulator's.
 *
 * The probe is the kind of code the simulator's hot paths are, because
 * that is what follows their slowdowns: standard-library containers,
 * sorting, number formatting, and std::function callbacks through a
 * priority queue into a hash table. On the reference host it followed
 * the points far more closely than integer and dependent-load loops did
 * (README.md).
 */

#ifndef PERFBENCH_HOST_PROBE_HH
#define PERFBENCH_HOST_PROBE_HH

#include <cstdint>

namespace perfbench {

/** The probe time that defines the reference host speed: rescaled times
 *  are seconds on a host on which the probe takes this long (the 4-vCPU
 *  Xeon VM of README.md took 6-13 ms as its speed drifted). */
constexpr double kProbeReferenceSeconds = 0.010;

class HostProbe
{
  public:
    /** Run the fixed work once and return the thread CPU seconds it
     *  took. */
    double run();

  private:
    static constexpr int kRounds = 120;
    std::uint64_t sink_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_HOST_PROBE_HH
