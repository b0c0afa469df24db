/**
 * @file
 * A page-level trace-driven FTL simulator with greedy garbage
 * collection. The paper's recycling study (Section 8) rests on write
 * amplification as a function of over-provisioning; this simulator
 * provides an empirical WA measurement that validates the analytical
 * model in wa_model.h (tests bound their divergence).
 *
 * Design: a log-structured FTL over num_blocks x pages_per_block pages.
 * The logical space covers (1 - spare) of the physical pages. Writes go
 * to an active block; when the free-block pool drops below a threshold,
 * the block with the fewest valid pages is collected (its live pages
 * relocated) and erased.
 *
 * Victim index: the GC candidates are the closed blocks, i.e. full
 * blocks that are neither a write nor a GC frontier. They are kept in
 * one bitset row per valid-page count 0..pages_per_block, so a GC
 * takes the lowest set bit of the lowest non-empty row (fewest valid
 * pages, ties to the lowest block id) instead of scanning every block.
 * A block enters the index when a frontier moves off it, drops one row
 * per invalidated page (a closed block's valid count only falls), and
 * leaves it when it is collected.
 *
 * Livelock: when the cheapest victim has no invalid page, every closed
 * block is fully valid, collecting one frees no space, and GC could
 * never end. The simulator then stops with util::fatal naming the
 * geometry, over-provisioning and GC threshold; raise over_provision.
 *
 * Page IDs: a physical page is (block << page_shift) | page, with
 * page_shift = bit_width(pages_per_block - 1), so finding a page's
 * block is a shift, not a divide. The tables hold 32-bit IDs with
 * kNone (all ones) for "unmapped"; the reverse map is padded to
 * num_blocks << page_shift entries (the padding of a non-power-of-two
 * block stays kNone). A geometry whose padded page space does not fit
 * below kNone is fatal in the constructor, before anything is
 * allocated.
 *
 * Relocation: collecting a victim gathers its live LBAs in page order
 * into a preallocated scratch buffer (no branches), then fills the GC
 * frontier one run at a time. A run ends when the frontier is full or,
 * with separate hot/cold streams, when the stream changes; the
 * destination's valid count and the stats move once per run. Pages
 * land in the same order and blocks close, pop and enter the victim
 * index at the same moments as a page-at-a-time loop would.
 */

#ifndef ACT_SSD_FTL_SIM_H
#define ACT_SSD_FTL_SIM_H

#include <array>
#include <cstdint>
#include <vector>

#include "util/random.h"

namespace act::ssd {

/** Spatial write pattern issued by the host. */
enum class WritePattern
{
    /** Uniform random over the logical space. */
    Uniform,
    /** Two-class skew: a hot fraction of LBAs receives most writes
     *  (the classic 80/20-style model used in FTL analysis). */
    HotCold,
};

/** Simulator configuration. */
struct FtlConfig
{
    int num_blocks = 1024;
    int pages_per_block = 64;
    /** Over-provisioning factor: spare / user capacity. */
    double over_provision = 0.16;
    /** Number of user page writes to issue after preconditioning. */
    std::uint64_t user_writes = 4'000'000;
    /** Blocks kept in reserve before GC triggers. */
    int gc_threshold_blocks = 2;
    std::uint64_t seed = 42;

    WritePattern pattern = WritePattern::Uniform;
    /** HotCold: fraction of LBAs that are hot. */
    double hot_lba_fraction = 0.2;
    /** HotCold: fraction of writes hitting the hot LBAs. */
    double hot_write_fraction = 0.8;
    /** Route hot and cold writes to separate write frontiers
     *  (multi-stream), so blocks age uniformly within a stream and
     *  greedy GC finds colder victims. */
    bool separate_hot_cold = false;
};

/**
 * Measured statistics. Page writes, relocations and erases count only
 * the measured phase; gc_invocations also counts the collections run
 * while preconditioning, so it exceeds erases.
 */
struct FtlStats
{
    std::uint64_t user_pages_written = 0;
    std::uint64_t physical_pages_written = 0;
    std::uint64_t gc_invocations = 0;
    std::uint64_t pages_relocated = 0;
    std::uint64_t erases = 0;

    /** physical / user page writes. */
    double writeAmplification() const;
};

/** The simulator. Deterministic for a fixed config (own xorshift RNG). */
class FtlSimulator
{
  public:
    explicit FtlSimulator(FtlConfig config);

    /**
     * Precondition (fill the logical space once, then write one full
     * drive's worth of random traffic) and run the measured phase.
     */
    FtlStats run();

    /** Logical pages exposed to the user. */
    std::uint64_t logicalPageCount() const { return logical_pages_; }

    /**
     * Structural invariant check over the FTL state after run():
     * page table and reverse map agree (the reverse map's padding
     * stays unmapped), per-block valid counts match,
     * total valid pages equal the logical space, and the victim index
     * holds exactly the closed blocks, each in the row of its valid
     * count, and picks the victim a scan of every block would pick.
     * Used by tests.
     */
    bool checkConsistency() const;

  private:
    struct Block
    {
        int valid = 0;
        int next_page = 0;
        std::uint64_t erase_count = 0;
    };

    /** Unmapped entry of the page table and the reverse map. */
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    FtlConfig config_;
    std::uint64_t logical_pages_ = 0;
    /** bit_width(pages_per_block - 1): page ID = (block << shift) | page. */
    int page_shift_ = 0;
    /** Hot and cold LBAs go to separate frontiers. */
    bool separate_streams_ = false;

    std::vector<Block> blocks_;
    /** LBA -> physical page ID, or kNone. */
    std::vector<std::uint32_t> page_table_;
    /** Physical page ID -> LBA, or kNone when invalid, free or padding. */
    std::vector<std::uint32_t> reverse_table_;
    /** Live LBAs of the block being collected, in page order. */
    std::vector<std::uint32_t> gc_scratch_;
    std::vector<int> free_blocks_;
    /** User-write frontiers: [0] = cold/default, [1] = hot stream. */
    std::array<int, 2> active_blocks_ = {-1, -1};
    /** Separate GC relocation frontiers (per stream), so collection
     *  never recurses into user allocation (which could re-collect
     *  the victim) and does not re-mix hot and cold data. */
    std::array<int, 2> gc_blocks_ = {-1, -1};

    /** Victim index: row v (words_ words) has bit b set iff block b
     *  is closed with v valid pages. */
    std::vector<std::uint64_t> victim_index_;
    std::size_t words_ = 0;
    /** No row below this one is non-empty. */
    int min_valid_ = 0;

    /** Victim-index word holding block's bit in row. */
    std::size_t indexSlot(int row, int block) const
    {
        return static_cast<std::size_t>(row) * words_ +
               static_cast<std::size_t>(block) / 64;
    }
    static std::uint64_t blockBit(int block)
    {
        return std::uint64_t{1} << (block % 64);
    }

    util::Xorshift64Star rng_{42};
    FtlStats stats_;
    bool measuring_ = false;

    void reset();
    std::uint64_t nextLba();
    bool isHotLba(std::uint64_t lba) const;
    void writePage(std::uint64_t lba);
    /** User-write frontier of a stream, with a free page; moves the
     *  frontier to a free block (running GC first) when it is full. */
    int userFrontier(int stream);
    /** GC relocation frontier of a stream, with a free page. */
    int gcFrontier(int stream);
    /** Stream for a user or relocated write of this LBA. */
    int streamFor(std::uint64_t lba) const;
    /** Page ID of a block's next free page. */
    std::uint32_t nextPageId(int block) const
    {
        return (static_cast<std::uint32_t>(block) << page_shift_) |
               static_cast<std::uint32_t>(blocks_[block].next_page);
    }
    /** Mark a physical page invalid, moving its block down one row of
     *  the victim index when the block is closed. */
    void invalidatePage(std::uint32_t page);
    /** Add a full block that a frontier has just moved off. */
    void closeBlock(int block);
    /** Lowest indexed block at or above row min_valid_, or -1; sets
     *  row to its valid count. */
    int indexedVictim(int &row) const;
    void collectOneBlock();
};

} // namespace act::ssd

#endif // ACT_SSD_FTL_SIM_H
