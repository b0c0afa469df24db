#include "ssd/ftl_sim.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/logging.h"

namespace act::ssd {

double
FtlStats::writeAmplification() const
{
    if (user_pages_written == 0)
        return 1.0;
    return static_cast<double>(physical_pages_written) /
           static_cast<double>(user_pages_written);
}

FtlSimulator::FtlSimulator(FtlConfig config) : config_(config)
{
    if (config_.num_blocks < 8 || config_.pages_per_block < 1)
        util::fatal("FTL geometry too small");
    if (config_.over_provision <= 0.0 || config_.over_provision >= 1.0)
        util::fatal("over-provisioning factor must be in (0, 1), got ",
                    config_.over_provision);
    if (config_.gc_threshold_blocks < 1 ||
        config_.gc_threshold_blocks >= config_.num_blocks / 2) {
        util::fatal("bad GC threshold");
    }
    if (config_.pattern == WritePattern::HotCold) {
        if (!(config_.hot_lba_fraction > 0.0 &&
              config_.hot_lba_fraction < 1.0) ||
            !(config_.hot_write_fraction >= 0.0 &&
              config_.hot_write_fraction <= 1.0)) {
            util::fatal("bad hot/cold workload parameters");
        }
    }

    page_shift_ = std::bit_width(
        static_cast<unsigned>(config_.pages_per_block - 1));
    const std::uint64_t padded_pages =
        static_cast<std::uint64_t>(config_.num_blocks) << page_shift_;
    if (padded_pages > kNone) {
        util::fatal("FTL geometry too large for 32-bit page IDs (num_blocks=",
                    config_.num_blocks,
                    ", pages_per_block=", config_.pages_per_block,
                    ": ", padded_pages, " padded pages, at most ", kNone,
                    ")");
    }
    separate_streams_ = config_.separate_hot_cold &&
                        config_.pattern == WritePattern::HotCold;

    const std::uint64_t physical_pages =
        static_cast<std::uint64_t>(config_.num_blocks) *
        config_.pages_per_block;
    // user * (1 + op) = physical  =>  user = physical / (1 + op).
    logical_pages_ = static_cast<std::uint64_t>(std::floor(
        static_cast<double>(physical_pages) /
        (1.0 + config_.over_provision)));
    if (logical_pages_ == 0)
        util::fatal("no logical space left after over-provisioning");
}

void
FtlSimulator::reset()
{
    blocks_.assign(static_cast<std::size_t>(config_.num_blocks), Block{});
    page_table_.assign(logical_pages_, kNone);
    reverse_table_.assign(static_cast<std::size_t>(config_.num_blocks)
                              << page_shift_,
                          kNone);
    gc_scratch_.assign(static_cast<std::size_t>(config_.pages_per_block),
                       kNone);
    free_blocks_.clear();
    for (int b = config_.num_blocks - 1; b >= 0; --b)
        free_blocks_.push_back(b);
    active_blocks_ = {-1, -1};
    gc_blocks_ = {-1, -1};
    words_ = (static_cast<std::size_t>(config_.num_blocks) + 63) / 64;
    victim_index_.assign(
        words_ * static_cast<std::size_t>(config_.pages_per_block + 1), 0);
    min_valid_ = config_.pages_per_block;
    rng_ = util::Xorshift64Star(config_.seed);
    stats_ = FtlStats{};
    measuring_ = false;
}

int
FtlSimulator::userFrontier(int stream)
{
    int &active = active_blocks_[static_cast<std::size_t>(stream)];
    if (active < 0 ||
        blocks_[active].next_page >= config_.pages_per_block) {
        while (static_cast<int>(free_blocks_.size()) <=
               config_.gc_threshold_blocks) {
            collectOneBlock();
        }
        if (active >= 0)
            closeBlock(active);
        active = free_blocks_.back();
        free_blocks_.pop_back();
    }
    return active;
}

int
FtlSimulator::gcFrontier(int stream)
{
    int &gc_block = gc_blocks_[static_cast<std::size_t>(stream)];
    if (gc_block < 0 ||
        blocks_[gc_block].next_page >= config_.pages_per_block) {
        if (free_blocks_.empty())
            util::panic("FTL ran out of blocks during GC");
        if (gc_block >= 0)
            closeBlock(gc_block);
        gc_block = free_blocks_.back();
        free_blocks_.pop_back();
    }
    return gc_block;
}

int
FtlSimulator::streamFor(std::uint64_t lba) const
{
    return (separate_streams_ && isHotLba(lba)) ? 1 : 0;
}

void
FtlSimulator::invalidatePage(std::uint32_t page)
{
    reverse_table_[page] = kNone;
    const int block_id = static_cast<int>(page >> page_shift_);
    const int valid = blocks_[block_id].valid--;
    std::uint64_t *word = &victim_index_[indexSlot(valid, block_id)];
    const std::uint64_t bit = blockBit(block_id);
    if (*word & bit) {
        *word &= ~bit;
        *(word - words_) |= bit;
        if (valid - 1 < min_valid_)
            min_valid_ = valid - 1;
    }
}

void
FtlSimulator::closeBlock(int block_id)
{
    const int valid = blocks_[block_id].valid;
    victim_index_[indexSlot(valid, block_id)] |= blockBit(block_id);
    if (valid < min_valid_)
        min_valid_ = valid;
}

int
FtlSimulator::indexedVictim(int &row) const
{
    for (row = min_valid_; row <= config_.pages_per_block; ++row) {
        const std::uint64_t *bits = &victim_index_[indexSlot(row, 0)];
        for (std::size_t w = 0; w < words_; ++w) {
            if (bits[w] != 0) {
                return static_cast<int>(w * 64) +
                       std::countr_zero(bits[w]);
            }
        }
    }
    return -1;
}

void
FtlSimulator::collectOneBlock()
{
    const int victim = indexedVictim(min_valid_);
    if (victim < 0)
        util::panic("FTL GC found no victim block");
    if (min_valid_ == config_.pages_per_block) {
        // Every closed block is fully valid: collecting one frees no
        // page, so the free pool can never refill.
        util::fatal("FTL garbage collection cannot make progress: every "
                    "closed block is fully valid (num_blocks=",
                    config_.num_blocks,
                    ", pages_per_block=", config_.pages_per_block,
                    ", over_provision=", config_.over_provision,
                    ", gc_threshold_blocks=", config_.gc_threshold_blocks,
                    "); raise over_provision");
    }
    victim_index_[indexSlot(min_valid_, victim)] &= ~blockBit(victim);
    Block &block = blocks_[victim];
    ++stats_.gc_invocations;

    // Pass 1: gather the live LBAs in page order and clear the
    // victim's reverse entries (a dead entry is already kNone).
    const std::uint32_t base = static_cast<std::uint32_t>(victim)
                               << page_shift_;
    std::uint32_t *live = gc_scratch_.data();
    std::size_t live_count = 0;
    for (int p = 0; p < config_.pages_per_block; ++p) {
        const std::uint32_t lba = reverse_table_[base + p];
        live[live_count] = lba;
        live_count += lba != kNone;
        reverse_table_[base + p] = kNone;
    }

    // Pass 2: fill the GC frontier one run at a time. A run ends when
    // the frontier is full or the stream changes, so the next
    // gcFrontier() call closes the full block (its valid count already
    // includes the run) exactly when a page-at-a-time loop would.
    std::size_t i = 0;
    while (i < live_count) {
        const int stream = streamFor(live[i]);
        const int dest = gcFrontier(stream);
        Block &frontier = blocks_[dest];
        const std::size_t room =
            static_cast<std::size_t>(config_.pages_per_block -
                                     frontier.next_page);
        const std::size_t end = std::min(live_count, i + room);
        std::uint32_t page = nextPageId(dest);
        std::size_t j = i;
        for (; j < end && streamFor(live[j]) == stream; ++j, ++page) {
            page_table_[live[j]] = page;
            reverse_table_[page] = live[j];
        }
        const int moved = static_cast<int>(j - i);
        frontier.next_page += moved;
        frontier.valid += moved;
        if (measuring_) {
            stats_.physical_pages_written += j - i;
            stats_.pages_relocated += j - i;
        }
        i = j;
    }

    block.valid = 0;
    block.next_page = 0;
    ++block.erase_count;
    if (measuring_)
        ++stats_.erases;
    free_blocks_.push_back(victim);
}

bool
FtlSimulator::isHotLba(std::uint64_t lba) const
{
    // The hot set occupies the low end of the logical space.
    return static_cast<double>(lba) <
           config_.hot_lba_fraction *
               static_cast<double>(logical_pages_);
}

std::uint64_t
FtlSimulator::nextLba()
{
    if (config_.pattern == WritePattern::Uniform)
        return rng_.nextBelow(logical_pages_);

    const auto hot_pages = static_cast<std::uint64_t>(
        config_.hot_lba_fraction * static_cast<double>(logical_pages_));
    if (hot_pages == 0 || hot_pages >= logical_pages_)
        return rng_.nextBelow(logical_pages_);
    if (rng_.nextUnit() < config_.hot_write_fraction)
        return rng_.nextBelow(hot_pages);
    return hot_pages + rng_.nextBelow(logical_pages_ - hot_pages);
}

void
FtlSimulator::writePage(std::uint64_t lba)
{
    const std::uint32_t old_page = page_table_[lba];
    if (old_page != kNone)
        invalidatePage(old_page);
    const int block_id = userFrontier(streamFor(lba));
    const std::uint32_t new_page = nextPageId(block_id);
    page_table_[lba] = new_page;
    reverse_table_[new_page] = static_cast<std::uint32_t>(lba);
    Block &block = blocks_[block_id];
    ++block.next_page;
    ++block.valid;
    if (measuring_) {
        ++stats_.user_pages_written;
        ++stats_.physical_pages_written;
    }
}

bool
FtlSimulator::checkConsistency() const
{
    if (blocks_.empty())
        return false;  // run() has not executed yet

    // Every mapped LBA must point at a page that maps back to it.
    std::uint64_t mapped = 0;
    const auto pages_per_block =
        static_cast<std::uint32_t>(config_.pages_per_block);
    const std::uint32_t page_mask = (std::uint32_t{1} << page_shift_) - 1;
    for (std::uint64_t lba = 0; lba < logical_pages_; ++lba) {
        const std::uint32_t page = page_table_[lba];
        if (page == kNone)
            continue;
        ++mapped;
        if (page >= reverse_table_.size() ||
            (page & page_mask) >= pages_per_block ||
            reverse_table_[page] != lba)
            return false;
    }

    // Per-block valid counts match the reverse map, the total equals
    // the mapped logical pages, and every padding entry is kNone.
    std::uint64_t total_valid = 0;
    for (int b = 0; b < config_.num_blocks; ++b) {
        int valid = 0;
        const std::uint32_t base = static_cast<std::uint32_t>(b)
                                   << page_shift_;
        for (std::uint32_t page = 0; page <= page_mask; ++page) {
            if (reverse_table_[base + page] == kNone)
                continue;
            if (page >= pages_per_block)
                return false;
            ++valid;
        }
        if (valid != blocks_[b].valid)
            return false;
        total_valid += static_cast<std::uint64_t>(valid);
    }
    if (total_valid != mapped)
        return false;

    // The victim index holds exactly the closed blocks, each in the
    // row of its valid count, and picks the block a scan of every
    // block picks: the fewest valid pages, ties to the lowest id.
    int scan_victim = -1;
    int scan_valid = config_.pages_per_block + 1;
    for (int b = 0; b < config_.num_blocks; ++b) {
        const Block &block = blocks_[b];
        const bool frontier = b == active_blocks_[0] ||
                              b == active_blocks_[1] ||
                              b == gc_blocks_[0] || b == gc_blocks_[1];
        const bool closed =
            !frontier && block.next_page >= config_.pages_per_block;
        for (int row = 0; row <= config_.pages_per_block; ++row) {
            const bool indexed =
                (victim_index_[indexSlot(row, b)] & blockBit(b)) != 0;
            if (indexed != (closed && row == block.valid))
                return false;
        }
        if (closed && block.valid < scan_valid) {
            scan_valid = block.valid;
            scan_victim = b;
        }
    }
    if (scan_victim >= 0 && min_valid_ > scan_valid)
        return false;
    int row = 0;
    return indexedVictim(row) == scan_victim;
}

FtlStats
FtlSimulator::run()
{
    reset();

    // Precondition: sequential fill, then one drive-write of
    // pattern-shaped traffic to reach steady state.
    for (std::uint64_t lba = 0; lba < logical_pages_; ++lba)
        writePage(lba);
    for (std::uint64_t i = 0; i < logical_pages_; ++i)
        writePage(nextLba());

    measuring_ = true;
    for (std::uint64_t i = 0; i < config_.user_writes; ++i)
        writePage(nextLba());

    return stats_;
}

} // namespace act::ssd
