#include "ooc.hh"

#include <algorithm>
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
packState(std::vector<uint8_t> &out, const BitVec &state,
          size_t state_bits)
{
    const size_t words = wordsFor(state_bits);
    for (size_t w = 0; w < words; ++w) {
        const size_t lsb = w * 64;
        const size_t width = std::min<size_t>(64, state_bits - lsb);
        packU64(out, state.getField(lsb, width));
    }
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

    BitVec
    state(size_t state_bits)
    {
        BitVec out(state_bits);
        const size_t words = wordsFor(state_bits);
        for (size_t w = 0; w < words; ++w) {
            const size_t lsb = w * 64;
            const size_t width =
                std::min<size_t>(64, state_bits - lsb);
            out.setField(lsb, width, u64());
        }
        return out;
    }
};

} // namespace

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

// --- Frontier spill files -------------------------------------------

std::string
frontierPath(const std::string &dir, size_t level)
{
    return formatString("%s/frontier-%06zu.avf", dir.c_str(), level);
}

bool
writeFrontierFile(const std::string &path, uint64_t level,
                  size_t state_bits,
                  const std::vector<BitVec> &states,
                  uint64_t *bytes_written)
{
    RecordFileWriter writer(path, kFrontierMagic, kSpillVersion);
    std::vector<uint8_t> rec;
    packU64(rec, level);
    packU64(rec, state_bits);
    packU64(rec, states.size());
    bool ok = writer.append(rec);
    for (size_t i = 0; i < states.size() && ok; i += kBatchStates) {
        const size_t n =
            std::min(kBatchStates, states.size() - i);
        rec.clear();
        packU64(rec, n);
        for (size_t k = 0; k < n; ++k)
            packState(rec, states[i + k], state_bits);
        ok = writer.append(rec);
    }
    const uint64_t bytes = writer.bytesWritten();
    ok = ok && writer.commit();
    if (ok && bytes_written)
        *bytes_written += bytes;
    return ok;
}

bool
readFrontierFile(const std::string &path, uint64_t level,
                 size_t state_bits, size_t expect_count,
                 std::vector<BitVec> &out)
{
    out.clear();
    RecordFileReader reader(path, kFrontierMagic, kSpillVersion);
    if (!reader.ok())
        return false;
    using RS = RecordFileReader::Status;
    std::vector<uint8_t> rec;
    if (reader.next(rec) != RS::Record)
        return false;
    Reader header{rec.data(), rec.size()};
    const uint64_t file_level = header.u64();
    const uint64_t file_bits = header.u64();
    const uint64_t file_count = header.u64();
    if (!header.ok || header.pos != header.size ||
        file_level != level || file_bits != state_bits ||
        file_count != expect_count)
        return false;
    out.reserve(expect_count);
    const size_t state_bytes = wordsFor(state_bits) * 8;
    RS status;
    while ((status = reader.next(rec)) == RS::Record) {
        Reader in{rec.data(), rec.size()};
        const uint64_t n = in.u64();
        if (!in.ok || n * state_bytes != in.remaining() ||
            out.size() + n > expect_count) {
            out.clear();
            return false;
        }
        for (uint64_t k = 0; k < n; ++k)
            out.push_back(in.state(state_bits));
    }
    if (status != RS::End || out.size() != expect_count) {
        out.clear();
        return false;
    }
    return true;
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
               size_t state_bits, const StateMap &table,
               uint64_t *bytes_written)
{
    RecordFileWriter writer(path, kShardMagic, kSpillVersion);
    std::vector<uint8_t> rec;
    packU64(rec, partition);
    packU64(rec, state_bits);
    packU64(rec, table.size());
    bool ok = writer.append(rec);
    rec.clear();
    uint64_t in_batch = 0;
    std::vector<uint8_t> batch;
    for (auto it = table.begin(); it != table.end() && ok; ++it) {
        packU32(batch, it->second);
        packState(batch, it->first, state_bits);
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
readShardFile(const std::string &path, uint64_t partition,
              size_t state_bits,
              const std::function<void(BitVec &&, graph::StateId)>
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
            sink(in.state(state_bits), id);
        }
        seen += n;
    }
    return status == RS::End && seen == file_count;
}

} // namespace archval::murphi::ooc
