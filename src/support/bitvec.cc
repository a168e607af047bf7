#include "bitvec.hh"

#include "status.hh"

namespace archval
{

namespace
{

constexpr size_t wordBits = 64;

size_t
wordsFor(size_t num_bits)
{
    return (num_bits + wordBits - 1) / wordBits;
}

} // namespace

BitVec::BitVec(size_t num_bits)
    : numBits_(num_bits), words_(wordsFor(num_bits), 0)
{
}

BitVec::BitVec(size_t num_bits, std::span<const uint64_t> words)
    : numBits_(num_bits), words_(words.begin(), words.end())
{
    if (words_.size() != wordsFor(num_bits))
        panic("BitVec: word count does not match the width");
    if (num_bits % wordBits != 0)
        words_.back() &= (uint64_t(1) << (num_bits % wordBits)) - 1;
}

bool
BitVec::get(size_t index) const
{
    if (index >= numBits_)
        panic("BitVec::get out of range");
    return (words_[index / wordBits] >> (index % wordBits)) & 1;
}

void
BitVec::set(size_t index, bool value)
{
    if (index >= numBits_)
        panic("BitVec::set out of range");
    uint64_t mask = uint64_t(1) << (index % wordBits);
    if (value)
        words_[index / wordBits] |= mask;
    else
        words_[index / wordBits] &= ~mask;
}

uint64_t
BitVec::getField(size_t lsb, size_t width) const
{
    if (width > 64)
        panic("BitVec::getField width > 64");
    if (width != 0 && lsb + width > numBits_)
        panic("BitVec::getField out of range");
    return packedField(words_, lsb, width);
}

void
BitVec::setField(size_t lsb, size_t width, uint64_t value)
{
    if (width > 64)
        panic("BitVec::setField width > 64");
    if (width != 0 && lsb + width > numBits_)
        panic("BitVec::setField out of range");
    setPackedField(words_, lsb, width, value);
}

void
BitVec::clear()
{
    for (auto &w : words_)
        w = 0;
}

std::string
BitVec::toString() const
{
    std::string out;
    out.reserve(numBits_);
    for (size_t i = numBits_; i-- > 0;)
        out.push_back(get(i) ? '1' : '0');
    return out;
}

size_t
BitVec::hash() const
{
    return static_cast<size_t>(hashPackedWords(numBits_, words_));
}

uint64_t
hashPackedWords(size_t num_bits, std::span<const uint64_t> words)
{
    // FNV-1a over the words, folded with the width so that vectors of
    // different widths with equal payloads do not collide trivially.
    uint64_t h = 1469598103934665603ull ^ num_bits;
    for (uint64_t w : words) {
        h ^= w;
        h *= 1099511628211ull;
    }
    return h;
}

bool
BitVec::operator==(const BitVec &other) const
{
    return numBits_ == other.numBits_ && words_ == other.words_;
}

bool
BitVec::operator<(const BitVec &other) const
{
    if (numBits_ != other.numBits_)
        return numBits_ < other.numBits_;
    return words_ < other.words_;
}

} // namespace archval
