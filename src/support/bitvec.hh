/**
 * @file
 * Packed dynamic bit vector used for encoded model-checker states.
 *
 * A BitVec is a fixed-width (set at construction) sequence of bits
 * with field accessors for multi-bit slices. It is the unit stored in
 * the enumerator's hash table, so it is compact (one heap word vector)
 * and hashable.
 */

#ifndef ARCHVAL_SUPPORT_BITVEC_HH
#define ARCHVAL_SUPPORT_BITVEC_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace archval
{

/** Fixed-width packed bit vector with multi-bit field access. */
class BitVec
{
  public:
    /** Construct an all-zero vector of @p num_bits bits. */
    explicit BitVec(size_t num_bits = 0);

    /** Construct a @p num_bits vector from its packed words (bit 0 is
     *  the LSB of word 0); there must be exactly ceil(num_bits / 64)
     *  of them. Bits above the width are cleared. */
    BitVec(size_t num_bits, std::span<const uint64_t> words);

    /** @return the width in bits. */
    size_t numBits() const { return numBits_; }

    /** @return bit @p index (0 = LSB of word 0). */
    bool get(size_t index) const;

    /** Set bit @p index to @p value. */
    void set(size_t index, bool value);

    /**
     * Read an unsigned field of @p width bits starting at bit @p lsb.
     * @p width must be <= 64.
     */
    uint64_t getField(size_t lsb, size_t width) const;

    /**
     * Write the low @p width bits of @p value at bit @p lsb.
     * @p width must be <= 64.
     */
    void setField(size_t lsb, size_t width, uint64_t value);

    /** Reset every bit to zero without changing the width. */
    void clear();

    /** @return a string of '0'/'1', MSB first, for debugging. */
    std::string toString() const;

    /** @return a stable hash of the contents. */
    size_t hash() const;

    bool operator==(const BitVec &other) const;
    bool operator!=(const BitVec &other) const { return !(*this == other); }

    /** Lexicographic comparison, for ordered containers. */
    bool operator<(const BitVec &other) const;

    /** @return approximate heap bytes used by this vector. */
    size_t memoryBytes() const { return words_.size() * sizeof(uint64_t); }

    /** @return the packed words, ceil(numBits() / 64) of them; bits
     *  above the width read zero. */
    std::span<const uint64_t> words() const { return words_; }

  private:
    size_t numBits_;
    std::vector<uint64_t> words_;
};

/**
 * Read the unsigned field of @p width (<= 64) bits at bit @p lsb of
 * packed @p words (bit 0 is the LSB of word 0). Unchecked: the field
 * must lie inside the words. BitVec::getField is the checked form.
 */
inline uint64_t
packedField(std::span<const uint64_t> words, size_t lsb, size_t width)
{
    if (width == 0)
        return 0;
    const size_t word = lsb / 64;
    const size_t offset = lsb % 64;
    uint64_t value = words[word] >> offset;
    if (offset + width > 64)
        value |= words[word + 1] << (64 - offset);
    return width < 64 ? value & ((uint64_t(1) << width) - 1) : value;
}

/**
 * Write the low @p width (<= 64) bits of @p value at bit @p lsb of
 * packed @p words. Unchecked, like packedField(); BitVec::setField is
 * the checked form.
 */
inline void
setPackedField(std::span<uint64_t> words, size_t lsb, size_t width,
               uint64_t value)
{
    if (width == 0)
        return;
    const uint64_t mask =
        width == 64 ? ~uint64_t(0) : (uint64_t(1) << width) - 1;
    value &= mask;
    const size_t word = lsb / 64;
    const size_t offset = lsb % 64;
    words[word] = (words[word] & ~(mask << offset)) | (value << offset);
    if (offset + width > 64) {
        const uint64_t high_mask =
            (uint64_t(1) << (offset + width - 64)) - 1;
        words[word + 1] = (words[word + 1] & ~high_mask) |
                          (value >> (64 - offset));
    }
}

/**
 * The hash of a packed state of @p num_bits bits held in @p words:
 * FNV-1a over the words, folded with the width. BitVec::hash() and
 * code that keeps states as bare words share it, so a state hashes
 * the same in either form.
 */
uint64_t hashPackedWords(size_t num_bits, std::span<const uint64_t> words);

/** std::hash adaptor for BitVec. */
struct BitVecHash
{
    size_t operator()(const BitVec &v) const { return v.hash(); }
};

} // namespace archval

#endif // ARCHVAL_SUPPORT_BITVEC_HH
