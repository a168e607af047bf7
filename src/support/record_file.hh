/**
 * @file
 * CRC-guarded record files: the container format of the service's
 * session store and of the out-of-core enumerator's spill files.
 *
 * Every record is CRC-checked on the way back in, and *any* failure —
 * short read, flipped bit, lying length, foreign header — is reported
 * instead of returning bytes the reader cannot vouch for.
 */

#ifndef ARCHVAL_SUPPORT_RECORD_FILE_HH
#define ARCHVAL_SUPPORT_RECORD_FILE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace archval
{

/** @return CRC-32 (IEEE, reflected) of @p size bytes at @p data,
 *  continuing from @p seed (pass 0 to start a new checksum). */
uint32_t crc32(const uint8_t *data, size_t size, uint32_t seed = 0);

/**
 * @name Persistent CRC-guarded record files
 *
 * A record file is a fixed header — magic and format version, so a
 * foreign or stale file is rejected before any payload is trusted —
 * followed by a sequence of records, each `[size u64][crc u32]
 * [payload]`, checksummed with crc32(). A reader reports *any*
 * damage (short file, bad magic, wrong version, lying length, CRC
 * mismatch) instead of returning bytes it cannot vouch for.
 *
 * Writers never touch the target path until commit(): records are
 * appended to a temp file in the same directory, then fsync'd and
 * atomically renamed over the target, so a crash mid-save leaves
 * the previous file intact and a concurrent reader never observes a
 * half-written store. A scratch file — one that only the writing
 * process reads back and that it removes before exit — skips the
 * fsync: a crash discards it anyway.
 * @{
 */

class RecordFileWriter
{
  public:
    /** Whether commit() makes the file outlive a crash. */
    enum class Durability
    {
        Durable, ///< fsync, then rename: a store other runs read
        Scratch, ///< rename only: this process's own spill file
    };

    /** Open a temp file next to @p path and write the header. A
     *  failure leaves the writer disabled (ok() false); every later
     *  call is then a harmless no-op returning false. */
    RecordFileWriter(const std::string &path, uint32_t magic,
                     uint32_t version,
                     Durability durability = Durability::Durable);

    /** Discards the temp file unless commit() succeeded. */
    ~RecordFileWriter();

    RecordFileWriter(const RecordFileWriter &) = delete;
    RecordFileWriter &operator=(const RecordFileWriter &) = delete;

    /** @return true while the file is open and every write so far
     *  succeeded. */
    bool ok() const { return fd_ >= 0; }

    /** Append @p size bytes at @p data as one record (size 0 is a
     *  legal, empty record). @return false on any write failure,
     *  which also disables the writer. */
    bool append(const uint8_t *data, size_t size);
    bool append(const std::vector<uint8_t> &record);

    /** fsync (a Durable file) and atomically rename the temp file
     *  over the target. @return false (target untouched) on any
     *  failure. */
    bool commit();

    /** @return total file bytes written so far (header + records) —
     *  what the committed file will occupy on disk. */
    uint64_t bytesWritten() const { return offset_; }

  private:
    void discard();

    int fd_ = -1;
    Durability durability_;
    std::string path_;     ///< final target
    std::string tempPath_; ///< staging file (same directory)
    uint64_t offset_ = 0;
    bool committed_ = false;
};

class RecordFileReader
{
  public:
    /** Largest record a reader will believe; a corrupt length field
     *  must not translate into an absurd allocation. */
    static constexpr uint64_t kMaxRecordBytes = 1ull << 30;

    /** Open @p path and validate the header. ok() is false when the
     *  file is missing, unreadable, or carries a foreign magic or
     *  version; otherVersion() tells the last apart. */
    RecordFileReader(const std::string &path, uint32_t magic,
                     uint32_t version);
    ~RecordFileReader();

    RecordFileReader(const RecordFileReader &) = delete;
    RecordFileReader &operator=(const RecordFileReader &) = delete;

    bool ok() const { return fd_ >= 0; }

    /** @return true when the header carries the expected magic and
     *  another format version: a file written by an older or newer
     *  build, not a missing, foreign or damaged one. */
    bool otherVersion() const { return otherVersion_; }

    enum class Status
    {
        Record,  ///< one record extracted into the out-param
        End,     ///< clean end of file, no record
        Damaged, ///< truncation, lying length, or CRC mismatch
    };

    /** Extract the next record's payload into @p out (cleared on
     *  End/Damaged). Damage is sticky: once seen, every later call
     *  reports Damaged too. */
    Status next(std::vector<uint8_t> &out);

  private:
    int fd_ = -1;
    bool otherVersion_ = false;
    uint64_t offset_ = 0;
    uint64_t fileSize_ = 0;
    bool damaged_ = false;
};

/**
 * @name Record-file fault injection (testing only)
 * Damage a committed record file in place the way a real fault
 * would, so readers' CRC/truncation paths can be proven to degrade
 * instead of returning wrong bytes.
 * @{
 */
/** Flip one byte of @p path at @p offset. */
bool corruptFileByteForTesting(const std::string &path,
                               uint64_t offset);
/** Truncate @p path to its first @p keep_bytes bytes. */
bool truncateFileForTesting(const std::string &path,
                            uint64_t keep_bytes);
/** @} */

/** @} */

} // namespace archval

#endif // ARCHVAL_SUPPORT_RECORD_FILE_HH
