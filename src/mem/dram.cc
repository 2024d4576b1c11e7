#include "mem/dram.hh"

#include <sstream>

#include "common/rng.hh"
#include "obs/chrome_trace.hh"
#include "obs/registry.hh"
#include "sim/verify.hh"

namespace tacsim {

Dram::Dram(std::string name, EventQueue &eq, DramParams p)
    : name_(std::move(name)), eq_(eq), params_(p)
{
    channels_.resize(params_.channels);
    for (auto &ch : channels_)
        ch.banks.resize(params_.banksPerChannel);
}

void
Dram::registerMetrics(obs::Registry &registry, const std::string &prefix)
{
    registry.addCounter(prefix + ".reads", &stats_.reads);
    registry.addCounter(prefix + ".writes", &stats_.writes);
    registry.addCounter(prefix + ".row_hits", &stats_.rowHits);
    registry.addCounter(prefix + ".row_misses", &stats_.rowMisses);
    registry.addCounter(prefix + ".row_conflicts",
                        &stats_.rowConflicts);
    registry.addCounter(prefix + ".translation_reads",
                        &stats_.translationReads);
    registry.addCounter(prefix + ".tempo_prefetches",
                        &stats_.tempoPrefetches);
    registry.addCounter(prefix + ".busy_cycles", &stats_.busyCycles);
    registry.addResetHook([this] { resetStats(); });
}

void
Dram::setTracer(obs::ChromeTracer *tracer, std::uint32_t track)
{
    tracer_ = tracer;
    track_ = track;
    if (tracer_) {
        rowHitId_ = tracer_->intern("row_hit");
        rowMissId_ = tracer_->intern("row_miss");
        rowConflictId_ = tracer_->intern("row_conflict");
    }
}

unsigned
Dram::channelOf(Addr paddr) const
{
    // Interleave channels at block granularity.
    return blockNumber(paddr) % params_.channels;
}

unsigned
Dram::bankOf(Addr paddr) const
{
    // Interleave banks at row granularity with a mixing hash so that
    // strided streams spread across banks.
    return static_cast<unsigned>(hashMix(paddr / params_.rowBytes) %
                                 params_.banksPerChannel);
}

Addr
Dram::rowOf(Addr paddr) const
{
    return paddr / params_.rowBytes;
}

Cycle
Dram::serviceLine(Addr paddr, bool isWrite)
{
    Channel &ch = channels_[channelOf(paddr)];
    Bank &bank = ch.banks[bankOf(paddr)];
    const Addr row = rowOf(paddr);

    Cycle start = eq_.now() + params_.tController;
    if (bank.readyAt > start)
        start = bank.readyAt;

    Cycle accessLat;
    std::uint32_t rowEventId;
    if (bank.rowValid && bank.openRow == row) {
        accessLat = params_.tCas;
        ++stats_.rowHits;
        rowEventId = rowHitId_;
    } else if (!bank.rowValid) {
        accessLat = params_.tRcd + params_.tCas;
        ++stats_.rowMisses;
        rowEventId = rowMissId_;
    } else {
        accessLat = params_.tRp + params_.tRcd + params_.tCas;
        ++stats_.rowConflicts;
        rowEventId = rowConflictId_;
    }
    if (tracer_)
        tracer_->instant(track_, rowEventId, start);
    bank.rowValid = true;
    bank.openRow = row;

    Cycle dataStart = start + accessLat;
    if (dataStart < ch.busFreeAt)
        dataStart = ch.busFreeAt;
    ch.busFreeAt = dataStart + params_.tBurst;
    stats_.busyCycles += params_.tBurst;

    // The bank can begin its next activate once the column access is done.
    bank.readyAt = dataStart;

    if (isWrite)
        ++stats_.writes;
    else
        ++stats_.reads;

    return dataStart + params_.tBurst;
}

void
Dram::access(const MemRequestPtr &req)
{
    if (req->type == ReqType::Writeback) {
        // Writes are posted: charge bandwidth, nobody waits.
        serviceLine(req->blockAddr(), true);
        req->complete(eq_.now(), RespSource::DRAM);
        return;
    }

    const Cycle doneAt = serviceLine(req->blockAddr(), false);

    if (req->isTranslation())
        ++stats_.translationReads;

    // TEMPO: a leaf PTE read serviced at DRAM means the demand load that
    // is waiting on this translation will miss the whole hierarchy next.
    // Fetch its data line right now and hand it to the LLC.
    if (params_.tempo && req->isLeafTranslation() &&
        req->replayBlockPaddr != 0 && tempoHook_) {
        ++stats_.tempoPrefetches;
        tempoHook_(blockAlign(req->replayBlockPaddr), req->ip);
    }

    MemRequestPtr keep = req;
    eq_.scheduleAt(doneAt, [keep, doneAt] {
        keep->complete(doneAt, RespSource::DRAM);
    });
}

void
Dram::checkInvariants() const
{
    using verify::InvariantViolation;

    if (channels_.size() != params_.channels) {
        std::ostringstream os;
        os << channels_.size() << " channels built, " << params_.channels
           << " configured";
        throw InvariantViolation(name_, "geometry", os.str());
    }
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        const Channel &ch = channels_[c];
        if (ch.banks.size() != params_.banksPerChannel) {
            std::ostringstream os;
            os << "channel " << c << " has " << ch.banks.size()
               << " banks, " << params_.banksPerChannel << " configured";
            throw InvariantViolation(name_, "geometry", os.str());
        }
        for (std::size_t b = 0; b < ch.banks.size(); ++b) {
            const Bank &bank = ch.banks[b];
            if (!bank.rowValid && bank.openRow != ~Addr{0}) {
                std::ostringstream os;
                os << "channel " << c << " bank " << b
                   << " has no open row but openRow=0x" << std::hex
                   << bank.openRow;
                throw InvariantViolation(name_, "row-state", os.str());
            }
        }
    }

    // Every serviced line is exactly one of row hit / miss / conflict.
    if (stats_.rowHits + stats_.rowMisses + stats_.rowConflicts !=
        stats_.reads + stats_.writes) {
        std::ostringstream os;
        os << "rowHits=" << stats_.rowHits << " + rowMisses="
           << stats_.rowMisses << " + rowConflicts="
           << stats_.rowConflicts << " != reads=" << stats_.reads
           << " + writes=" << stats_.writes;
        throw InvariantViolation(name_, "row-conservation", os.str());
    }
}

} // namespace tacsim
