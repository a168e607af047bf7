/**
 * @file
 * Out-of-core support for the enumerator: the interned-state table
 * and the CRC-guarded shard files its partitions are paged out to.
 *
 * On-disk format (see DESIGN.md, "State enumeration"): a shard file
 * is a support::RecordFileWriter/Reader record file —
 * `[magic u32][version u32]` then `[size u64][crc u32][payload]`
 * records — written atomically (temp file + rename) and fully
 * CRC-verified on the way back in. It holds one table partition's
 * (state, canonical id) entries. Its first record is a header naming
 * what the file claims to be (partition index, state width, entry
 * count); a reader that finds any mismatch or damage reports failure
 * instead of returning bytes it cannot vouch for, and the enumerator
 * then rebuilds the partition from the graph — never a silently
 * different graph.
 */

#ifndef ARCHVAL_MURPHI_OOC_HH
#define ARCHVAL_MURPHI_OOC_HH

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "graph/state_graph.hh"

namespace archval::murphi::ooc
{

/**
 * Open-addressing map from packed states to state ids: the
 * enumerator's interned-state partitions, its per-level table of new
 * states and its per-source duplicate filter.
 *
 * A state is its ceil(bits / 64) packed words (hashPackedWords gives
 * its hash). Entries sit densely in insertion order, keys in one word
 * array and ids in another; a linear-probing slot array, at most half
 * full, holds entry indices. Nothing is allocated per entry.
 */
class StateTable
{
  public:
    explicit StateTable(size_t state_bits);

    /** @return the id stored for @p key (whose hash is @p hash), or
     *  graph::invalidState when @p key is absent. */
    graph::StateId find(std::span<const uint64_t> key,
                        uint64_t hash) const;

    /** Add @p key (whose hash is @p hash, and which must be absent)
     *  with @p id. */
    void insert(std::span<const uint64_t> key, uint64_t hash,
                graph::StateId id);

    /** @return number of entries. */
    size_t size() const { return ids_.size(); }

    bool empty() const { return ids_.empty(); }

    /** @return the key of entry @p entry (insertion order). */
    std::span<const uint64_t> key(size_t entry) const;

    /** @return the id of entry @p entry (insertion order). */
    graph::StateId id(size_t entry) const { return ids_[entry]; }

    /** @return every key, back to back in insertion order. */
    const std::vector<uint64_t> &keys() const { return keys_; }

    /** Forget every entry, keeping the allocation for reuse; the
     *  work is proportional to the entries forgotten. */
    void clear();

    /** Forget every entry and free the allocation. */
    void release();

    /** @return heap bytes the table's arrays have allocated. */
    size_t memoryBytes() const;

  private:
    /** Size the slot array for @p entries entries and re-slot the
     *  current ones. */
    void reslot(size_t entries);

    size_t stateBits_;
    size_t stride_; ///< words per key
    std::vector<uint64_t> keys_;
    std::vector<graph::StateId> ids_;
    /** Entry index + 1 per slot; 0 marks an empty slot. */
    std::vector<uint32_t> slots_;
    unsigned slotBits_ = 0; ///< log2(slots_.size())
};

/** Shard (table partition) file identity: "AVP1" + format version. */
constexpr uint32_t kShardMagic = 0x31505641;
constexpr uint32_t kSpillVersion = 1;

/**
 * Fault-injection hooks (testing only). Null members are skipped;
 * production runs pass no hooks at all. They let the differential
 * battery damage shard files between write and read, to prove every
 * failure rebuilds the identical graph.
 */
struct TestHooks
{
    /** After a shard file was committed: (path, partition). */
    std::function<void(const std::string &, size_t)> afterShardPageOut;
};

/**
 * Scratch directory for one enumeration run: a fresh mkdtemp
 * subdirectory under @p base (or $TMPDIR / /tmp when @p base is
 * empty), recursively removed on destruction. An uncreatable base
 * leaves ok() false — the caller degrades to in-memory.
 */
class SpillDir
{
  public:
    explicit SpillDir(const std::string &base);
    ~SpillDir();

    SpillDir(const SpillDir &) = delete;
    SpillDir &operator=(const SpillDir &) = delete;

    bool ok() const { return !path_.empty(); }
    const std::string &path() const { return path_; }

  private:
    std::string path_; ///< empty when creation failed
};

/** @name Shard (table partition) spill files
 * Records: header `[partition u64][stateBits u64][count u64]`, then
 * batches `[n u64][n × (id u32 + state words)]`.
 * @{ */
/** @return the shard file path for @p partition under @p dir. */
std::string shardPath(const std::string &dir, size_t partition);

/** Page @p table out to @p path (atomic). @return false on any
 *  write failure (target untouched, table intact). */
bool writeShardFile(const std::string &path, uint64_t partition,
                    size_t state_bits, const StateTable &table,
                    uint64_t *bytes_written);

/** Page a shard file back in, calling @p sink once per entry with
 *  its packed words (valid for the call only) and id. @return false
 *  on any damage, header mismatch, or entry-count mismatch — the
 *  caller must then discard whatever the sink received and rebuild
 *  or fail. */
bool readShardFile(
    const std::string &path, uint64_t partition, size_t state_bits,
    const std::function<void(std::span<const uint64_t>, graph::StateId)>
        &sink);
/** @} */

} // namespace archval::murphi::ooc

#endif // ARCHVAL_MURPHI_OOC_HH
