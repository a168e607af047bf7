#include "ooc.hh"

#include <algorithm>
#include <bit>
#include <cstdlib>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "support/record_file.hh"
#include "support/strings.hh"

namespace archval::murphi::ooc
{

namespace
{

/** States per batch record: big enough to amortize the record
 *  framing, small enough to keep resident buffers flat. */
constexpr size_t kBatchStates = 512;

size_t
wordsFor(size_t state_bits)
{
    return (state_bits + 63) / 64;
}

void
packU32(std::vector<uint8_t> &out, uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(value >> (8 * i)));
}

void
packU64(std::vector<uint8_t> &out, uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(value >> (8 * i)));
}

void
packState(std::vector<uint8_t> &out, std::span<const uint64_t> state)
{
    for (uint64_t word : state)
        packU64(out, word);
}

/** Bounds-checked little-endian reader; any overrun flips ok. */
struct Reader
{
    const uint8_t *data;
    size_t size;
    size_t pos = 0;
    bool ok = true;

    size_t remaining() const { return size - pos; }

    uint32_t
    u32()
    {
        if (!ok || remaining() < 4) {
            ok = false;
            return 0;
        }
        uint32_t value = 0;
        for (int i = 0; i < 4; ++i)
            value |= uint32_t(data[pos + i]) << (8 * i);
        pos += 4;
        return value;
    }

    uint64_t
    u64()
    {
        if (!ok || remaining() < 8) {
            ok = false;
            return 0;
        }
        uint64_t value = 0;
        for (int i = 0; i < 8; ++i)
            value |= uint64_t(data[pos + i]) << (8 * i);
        pos += 8;
        return value;
    }

    /** Append one packed state of @p state_bits bits to @p out;
     *  bits above the width are cleared. */
    void
    state(size_t state_bits, std::vector<uint64_t> &out)
    {
        const size_t words = wordsFor(state_bits);
        for (size_t w = 0; w < words; ++w)
            out.push_back(u64());
        if (words > 0 && state_bits % 64 != 0)
            out.back() &= (uint64_t(1) << (state_bits % 64)) - 1;
    }
};

constexpr unsigned kMinSlotBits = 4;

/** Fibonacci hashing: the top @p slot_bits bits of the hash times
 *  2^64 / phi, so every bit of the hash picks the slot (partitions
 *  are chosen by its low bits). */
size_t
homeSlot(uint64_t hash, unsigned slot_bits)
{
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ull) >>
                               (64 - slot_bits));
}

} // namespace

// --- Interned state table -------------------------------------------

StateTable::StateTable(size_t state_bits)
    : stateBits_(state_bits), stride_(wordsFor(state_bits))
{
}

std::span<const uint64_t>
StateTable::key(size_t entry) const
{
    return std::span<const uint64_t>(keys_).subspan(entry * stride_,
                                                    stride_);
}

graph::StateId
StateTable::find(std::span<const uint64_t> key, uint64_t hash) const
{
    if (slots_.empty())
        return graph::invalidState;
    const size_t mask = slots_.size() - 1;
    for (size_t slot = homeSlot(hash, slotBits_);;
         slot = (slot + 1) & mask) {
        const uint32_t entry = slots_[slot];
        if (entry == 0)
            return graph::invalidState;
        const uint64_t *stored = keys_.data() + (entry - 1) * stride_;
        if (std::equal(key.begin(), key.end(), stored))
            return ids_[entry - 1];
    }
}

void
StateTable::insert(std::span<const uint64_t> key, uint64_t hash,
                   graph::StateId id)
{
    if (2 * (ids_.size() + 1) > slots_.size())
        reslot(ids_.size() + 1);
    keys_.insert(keys_.end(), key.begin(), key.end());
    ids_.push_back(id);
    const size_t mask = slots_.size() - 1;
    size_t slot = homeSlot(hash, slotBits_);
    while (slots_[slot] != 0)
        slot = (slot + 1) & mask;
    slots_[slot] = static_cast<uint32_t>(ids_.size());
}

void
StateTable::reslot(size_t entries)
{
    const size_t count = std::max<size_t>(
        size_t(1) << kMinSlotBits, std::bit_ceil(2 * entries));
    slotBits_ = static_cast<unsigned>(std::countr_zero(count));
    slots_.assign(count, 0);
    const size_t mask = count - 1;
    for (size_t e = 0; e < ids_.size(); ++e) {
        size_t slot = homeSlot(hashPackedWords(stateBits_, key(e)),
                               slotBits_);
        while (slots_[slot] != 0)
            slot = (slot + 1) & mask;
        slots_[slot] = static_cast<uint32_t>(e + 1);
    }
}

void
StateTable::clear()
{
    const size_t entries = ids_.size();
    keys_.clear();
    ids_.clear();
    if (!slots_.empty())
        reslot(entries);
}

void
StateTable::release()
{
    std::vector<uint64_t>().swap(keys_);
    std::vector<graph::StateId>().swap(ids_);
    std::vector<uint32_t>().swap(slots_);
    slotBits_ = 0;
}

size_t
StateTable::memoryBytes() const
{
    return keys_.capacity() * sizeof(uint64_t) +
           ids_.capacity() * sizeof(graph::StateId) +
           slots_.capacity() * sizeof(uint32_t);
}

// --- Spill scratch directory ----------------------------------------

SpillDir::SpillDir(const std::string &base)
{
    std::string root = base;
    if (root.empty()) {
        const char *tmp = std::getenv("TMPDIR");
        root = tmp && *tmp ? tmp : "/tmp";
    } else {
        ::mkdir(root.c_str(), 0777); // EEXIST is fine
    }
    std::string templ = root + "/archval-enum-XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) != nullptr)
        path_ = buf.data();
}

SpillDir::~SpillDir()
{
    if (path_.empty())
        return;
    if (DIR *dir = ::opendir(path_.c_str())) {
        while (struct dirent *entry = ::readdir(dir)) {
            const std::string name = entry->d_name;
            if (name == "." || name == "..")
                continue;
            ::unlink((path_ + "/" + name).c_str());
        }
        ::closedir(dir);
    }
    ::rmdir(path_.c_str());
}

// --- Shard (table partition) spill files ----------------------------

std::string
shardPath(const std::string &dir, size_t partition)
{
    return formatString("%s/shard-%04zx.avp", dir.c_str(),
                        partition);
}

bool
writeShardFile(const std::string &path, uint64_t partition,
               size_t state_bits, const StateTable &table,
               uint64_t *bytes_written)
{
    // A spill file is scratch: SpillDir removes it at the end of the
    // run, and only this process reads it back (CRC-checked).
    RecordFileWriter writer(path, kShardMagic, kSpillVersion,
                            RecordFileWriter::Durability::Scratch);
    std::vector<uint8_t> rec;
    packU64(rec, partition);
    packU64(rec, state_bits);
    packU64(rec, table.size());
    bool ok = writer.append(rec);
    rec.clear();
    uint64_t in_batch = 0;
    std::vector<uint8_t> batch;
    for (size_t e = 0; e < table.size() && ok; ++e) {
        packU32(batch, table.id(e));
        packState(batch, table.key(e));
        if (++in_batch == kBatchStates) {
            rec.clear();
            packU64(rec, in_batch);
            rec.insert(rec.end(), batch.begin(), batch.end());
            ok = writer.append(rec);
            batch.clear();
            in_batch = 0;
        }
    }
    if (ok && in_batch > 0) {
        rec.clear();
        packU64(rec, in_batch);
        rec.insert(rec.end(), batch.begin(), batch.end());
        ok = writer.append(rec);
    }
    const uint64_t bytes = writer.bytesWritten();
    ok = ok && writer.commit();
    if (ok && bytes_written)
        *bytes_written += bytes;
    return ok;
}

bool
readShardFile(
    const std::string &path, uint64_t partition, size_t state_bits,
    const std::function<void(std::span<const uint64_t>, graph::StateId)>
        &sink)
{
    RecordFileReader reader(path, kShardMagic, kSpillVersion);
    if (!reader.ok())
        return false;
    using RS = RecordFileReader::Status;
    std::vector<uint8_t> rec;
    if (reader.next(rec) != RS::Record)
        return false;
    Reader header{rec.data(), rec.size()};
    const uint64_t file_partition = header.u64();
    const uint64_t file_bits = header.u64();
    const uint64_t file_count = header.u64();
    if (!header.ok || header.pos != header.size ||
        file_partition != partition || file_bits != state_bits)
        return false;
    const size_t entry_bytes = 4 + wordsFor(state_bits) * 8;
    std::vector<uint64_t> key;
    uint64_t seen = 0;
    RS status;
    while ((status = reader.next(rec)) == RS::Record) {
        Reader in{rec.data(), rec.size()};
        const uint64_t n = in.u64();
        if (!in.ok || n * entry_bytes != in.remaining() ||
            seen + n > file_count)
            return false;
        for (uint64_t k = 0; k < n; ++k) {
            const graph::StateId id = in.u32();
            key.clear();
            in.state(state_bits, key);
            sink(key, id);
        }
        seen += n;
    }
    return status == RS::End && seen == file_count;
}

} // namespace archval::murphi::ooc
