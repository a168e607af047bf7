#include "record_file.hh"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

namespace archval
{

namespace
{

/** Lazily built reflected CRC-32 table (polynomial 0xEDB88320). */
const std::array<uint32_t, 256> &
crcTable()
{
    static const std::array<uint32_t, 256> table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
}

/** Full positioned write (EINTR-safe). @return false on failure. */
bool
pwriteAll(int fd, const uint8_t *data, size_t size, uint64_t offset)
{
    while (size > 0) {
        ssize_t n = ::pwrite(fd, data, size, (off_t)offset);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        size -= (size_t)n;
        offset += (uint64_t)n;
    }
    return true;
}

/** Full positioned read (EINTR-safe). @return false on failure. */
bool
preadAll(int fd, uint8_t *data, size_t size, uint64_t offset)
{
    while (size > 0) {
        ssize_t n = ::pread(fd, data, size, (off_t)offset);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false; // error or short file (truncation)
        }
        data += n;
        size -= (size_t)n;
        offset += (uint64_t)n;
    }
    return true;
}

} // namespace

uint32_t
crc32(const uint8_t *data, size_t size, uint32_t seed)
{
    const auto &table = crcTable();
    uint32_t c = seed ^ 0xFFFFFFFFu;
    for (size_t i = 0; i < size; ++i)
        c = table[(c ^ data[i]) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

namespace
{

/** Record-file header: [magic u32][version u32], little-endian. */
constexpr size_t kRecordHeaderBytes = 8;

void
putU32(uint8_t *out, uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out[i] = static_cast<uint8_t>(value >> (8 * i));
}

void
putU64(uint8_t *out, uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<uint8_t>(value >> (8 * i));
}

uint32_t
getU32(const uint8_t *in)
{
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= uint32_t(in[i]) << (8 * i);
    return value;
}

uint64_t
getU64(const uint8_t *in)
{
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= uint64_t(in[i]) << (8 * i);
    return value;
}

} // namespace

RecordFileWriter::RecordFileWriter(const std::string &path,
                                   uint32_t magic, uint32_t version,
                                   Durability durability)
    : durability_(durability), path_(path)
{
    std::string tmpl = path + ".tmpXXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    int fd = ::mkstemp(buf.data());
    if (fd < 0)
        return; // unusable directory: writer stays disabled
    fd_ = fd;
    tempPath_.assign(buf.data());
    uint8_t header[kRecordHeaderBytes];
    putU32(header, magic);
    putU32(header + 4, version);
    if (!pwriteAll(fd_, header, sizeof(header), 0)) {
        discard();
        return;
    }
    offset_ = sizeof(header);
}

RecordFileWriter::~RecordFileWriter()
{
    if (!committed_)
        discard();
}

void
RecordFileWriter::discard()
{
    if (fd_ >= 0) {
        ::close(fd_);
        ::unlink(tempPath_.c_str());
        fd_ = -1;
    }
}

bool
RecordFileWriter::append(const uint8_t *data, size_t size)
{
    if (fd_ < 0)
        return false;
    uint8_t prefix[12];
    putU64(prefix, size);
    putU32(prefix + 8, crc32(data, size));
    if (!pwriteAll(fd_, prefix, sizeof(prefix), offset_) ||
        !pwriteAll(fd_, data, size, offset_ + sizeof(prefix))) {
        discard(); // a failing disk will not improve mid-save
        return false;
    }
    offset_ += sizeof(prefix) + size;
    return true;
}

bool
RecordFileWriter::append(const std::vector<uint8_t> &record)
{
    return append(record.data(), record.size());
}

bool
RecordFileWriter::commit()
{
    if (fd_ < 0)
        return false;
    if ((durability_ == Durability::Durable && ::fsync(fd_) != 0) ||
        ::rename(tempPath_.c_str(), path_.c_str()) != 0) {
        discard();
        return false;
    }
    ::close(fd_);
    fd_ = -1;
    committed_ = true;
    return true;
}

RecordFileReader::RecordFileReader(const std::string &path,
                                   uint32_t magic, uint32_t version)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return;
    off_t size = ::lseek(fd, 0, SEEK_END);
    uint8_t header[kRecordHeaderBytes];
    const bool has_header = size >= (off_t)sizeof(header) &&
                            preadAll(fd, header, sizeof(header), 0);
    if (!has_header || getU32(header) != magic ||
        getU32(header + 4) != version) {
        otherVersion_ = has_header && getU32(header) == magic;
        ::close(fd);
        return; // missing/foreign/stale: "no usable store"
    }
    fd_ = fd;
    fileSize_ = (uint64_t)size;
    offset_ = sizeof(header);
}

RecordFileReader::~RecordFileReader()
{
    if (fd_ >= 0)
        ::close(fd_);
}

RecordFileReader::Status
RecordFileReader::next(std::vector<uint8_t> &out)
{
    out.clear();
    if (fd_ < 0 || damaged_)
        return Status::Damaged;
    if (offset_ == fileSize_)
        return Status::End;
    uint8_t prefix[12];
    // Check the claimed length against what the file can actually
    // hold before allocating: a flipped bit in the size field must
    // read as damage, not as a gigabyte resize.
    if (fileSize_ - offset_ < sizeof(prefix)) {
        damaged_ = true;
        return Status::Damaged;
    }
    if (!preadAll(fd_, prefix, sizeof(prefix), offset_)) {
        damaged_ = true;
        return Status::Damaged;
    }
    const uint64_t size = getU64(prefix);
    const uint32_t crc = getU32(prefix + 8);
    if (size > kMaxRecordBytes ||
        size > fileSize_ - offset_ - sizeof(prefix)) {
        damaged_ = true;
        return Status::Damaged;
    }
    out.resize(size);
    if (!preadAll(fd_, out.data(), size, offset_ + sizeof(prefix)) ||
        crc32(out.data(), out.size()) != crc) {
        out.clear();
        damaged_ = true;
        return Status::Damaged;
    }
    offset_ += sizeof(prefix) + size;
    return Status::Record;
}

bool
corruptFileByteForTesting(const std::string &path, uint64_t offset)
{
    const int fd = ::open(path.c_str(), O_RDWR);
    if (fd < 0)
        return false;
    uint8_t byte = 0;
    bool ok = preadAll(fd, &byte, 1, offset);
    if (ok) {
        byte ^= 0x40;
        ok = pwriteAll(fd, &byte, 1, offset);
    }
    ::close(fd);
    return ok;
}

bool
truncateFileForTesting(const std::string &path, uint64_t keep_bytes)
{
    return ::truncate(path.c_str(),
                      static_cast<off_t>(keep_bytes)) == 0;
}

} // namespace archval
