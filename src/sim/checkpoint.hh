/**
 * @file
 * The `tacsim-ckpt-v2` on-disk checkpoint container.
 *
 * Layout (all integers little-endian, written and read through
 * SerialWriter/SerialReader, common/serialize.hh):
 *
 *   header   8B magic "TACCKPT1"
 *            u32 version (= 2)
 *            u64 keyLen, then keyLen bytes of the point key the caller
 *                stamped the file with (the runner uses serve::warmKey)
 *            u64 payloadLen
 *   payload  payloadLen bytes of System::state output
 *   footer   u32 CRC-32 (IEEE) of key + payload bytes
 *
 * The key is the compatibility stamp: loadCheckpoint refuses to restore
 * a file whose key differs from the caller's. serve::warmKey hashes the
 * canonical config, the per-thread workload specs and the warm-up
 * budget, so a checkpoint restores only into the point that saved it.
 * A config stamp alone is not enough: the six graph benchmarks share
 * one state layout, so a `pr` machine would restore silently as `cc`.
 * The CRC rejects truncation and bit rot before any payload byte is
 * interpreted, and no length field can drive an allocation larger than
 * the file.
 *
 * Checkpoints are only written at quiesce() boundaries (System::state
 * enforces this), which is what makes restore deterministic: a
 * straight-through run and a save/restore run execute identical
 * instruction streams from identical machine state, so their canonical
 * stats dumps stay byte-identical.
 */

#ifndef TACSIM_SIM_CHECKPOINT_HH
#define TACSIM_SIM_CHECKPOINT_HH

#include <cstdint>
#include <string>

namespace tacsim {

class System;

constexpr std::uint32_t kCheckpointVersion = 2;

/**
 * Quiesce @p sys and write a tacsim-ckpt-v2 file stamped with @p key to
 * @p path. Throws std::runtime_error on I/O failure or when the system
 * holds state that cannot be checkpointed (see System::state).
 */
void saveCheckpoint(const std::string &path, System &sys,
                    const std::string &key);

/**
 * Restore @p sys from a tacsim-ckpt-v2 file. @p sys must be freshly
 * built for the point the checkpoint was saved from, and @p key must
 * equal the saver's stamp; throws std::runtime_error on
 * magic/version/CRC/key mismatch or a malformed payload.
 */
void loadCheckpoint(const std::string &path, System &sys,
                    const std::string &key);

} // namespace tacsim

#endif // TACSIM_SIM_CHECKPOINT_HH
