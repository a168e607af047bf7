/**
 * @file
 * Record-file tests: the CRC-guarded container format of the
 * service's session store and the out-of-core enumerator's spill
 * files (support/record_file).
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "support/record_file.hh"

namespace archval
{
namespace
{

constexpr uint32_t kTestMagic = 0x52435654; // "TVCR"

std::vector<uint8_t>
patternRecord(size_t size, uint8_t seed)
{
    std::vector<uint8_t> record(size);
    for (size_t i = 0; i < size; ++i)
        record[i] = static_cast<uint8_t>(seed + i * 13);
    return record;
}

std::string
recordFilePath(const char *name)
{
    return ::testing::TempDir() + "/archval-recfile-" + name + "-" +
           std::to_string(::getpid());
}

TEST(RecordFileTest, RoundTripIncludingEmptyRecords)
{
    const std::string path = recordFilePath("roundtrip");
    std::vector<std::vector<uint8_t>> records{
        patternRecord(1, 3), {}, patternRecord(4096, 7),
        patternRecord(17, 11)};
    {
        RecordFileWriter writer(path, kTestMagic, 2);
        ASSERT_TRUE(writer.ok());
        for (const auto &record : records)
            ASSERT_TRUE(writer.append(record));
        ASSERT_TRUE(writer.commit());
    }
    RecordFileReader reader(path, kTestMagic, 2);
    ASSERT_TRUE(reader.ok());
    std::vector<uint8_t> out;
    for (const auto &record : records) {
        ASSERT_EQ(reader.next(out), RecordFileReader::Status::Record);
        EXPECT_EQ(out, record);
    }
    EXPECT_EQ(reader.next(out), RecordFileReader::Status::End);
    EXPECT_EQ(reader.next(out), RecordFileReader::Status::End);
    ::unlink(path.c_str());
}

TEST(RecordFileTest, ScratchWriterCommitsTheSameFile)
{
    // A scratch file skips only the fsync: the committed bytes and
    // their read-back are a durable file's.
    using Durability = RecordFileWriter::Durability;
    const std::vector<uint8_t> record = patternRecord(300, 5);
    std::vector<std::vector<uint8_t>> files;
    for (Durability durability :
         {Durability::Durable, Durability::Scratch}) {
        const std::string path = recordFilePath(
            durability == Durability::Durable ? "durable" : "scratch");
        {
            RecordFileWriter writer(path, kTestMagic, 1, durability);
            ASSERT_TRUE(writer.append(record));
            ASSERT_TRUE(writer.commit());
        }
        RecordFileReader reader(path, kTestMagic, 1);
        std::vector<uint8_t> out;
        ASSERT_EQ(reader.next(out), RecordFileReader::Status::Record);
        EXPECT_EQ(out, record);
        EXPECT_EQ(reader.next(out), RecordFileReader::Status::End);

        std::vector<uint8_t> bytes(4096);
        const int fd = ::open(path.c_str(), O_RDONLY);
        ASSERT_GE(fd, 0);
        bytes.resize(size_t(::read(fd, bytes.data(), bytes.size())));
        ::close(fd);
        files.push_back(bytes);
        ::unlink(path.c_str());
    }
    EXPECT_EQ(files[0], files[1]);
}

TEST(RecordFileTest, UncommittedWriterLeavesTargetUntouched)
{
    const std::string path = recordFilePath("atomic");
    {
        RecordFileWriter writer(path, kTestMagic, 1);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.append(patternRecord(64, 1)));
        ASSERT_TRUE(writer.commit());
    }
    {
        // A writer that dies before commit() (daemon killed mid-save)
        // must leave the previously committed file intact.
        RecordFileWriter writer(path, kTestMagic, 1);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.append(patternRecord(999, 2)));
        // no commit
    }
    RecordFileReader reader(path, kTestMagic, 1);
    ASSERT_TRUE(reader.ok());
    std::vector<uint8_t> out;
    ASSERT_EQ(reader.next(out), RecordFileReader::Status::Record);
    EXPECT_EQ(out, patternRecord(64, 1));
    EXPECT_EQ(reader.next(out), RecordFileReader::Status::End);
    ::unlink(path.c_str());
}

TEST(RecordFileTest, ForeignMagicOrVersionFailsOpen)
{
    const std::string path = recordFilePath("identity");
    {
        RecordFileWriter writer(path, kTestMagic, 3);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.append(patternRecord(32, 5)));
        ASSERT_TRUE(writer.commit());
    }
    EXPECT_FALSE(RecordFileReader(path, kTestMagic + 1, 3).ok());
    EXPECT_FALSE(RecordFileReader(path, kTestMagic, 4).ok());
    EXPECT_FALSE(
        RecordFileReader(path + ".nope", kTestMagic, 3).ok());
    EXPECT_TRUE(RecordFileReader(path, kTestMagic, 3).ok());
    ::unlink(path.c_str());
}

TEST(RecordFileTest, OtherVersionToldApartFromMissingForeignAndDamage)
{
    // A file of our magic and another version is told apart from a
    // missing file, a foreign magic and a damaged header, so that a
    // caller can treat an older format as a routine miss.
    const std::string path = recordFilePath("other-version");
    {
        RecordFileWriter writer(path, kTestMagic, 3);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.append(patternRecord(32, 5)));
        ASSERT_TRUE(writer.commit());
    }
    EXPECT_FALSE(RecordFileReader(path, kTestMagic, 3).otherVersion());
    EXPECT_TRUE(RecordFileReader(path, kTestMagic, 4).otherVersion());
    EXPECT_FALSE(RecordFileReader(path, kTestMagic + 1, 3).otherVersion());
    EXPECT_FALSE(RecordFileReader(path, kTestMagic + 1, 4).otherVersion());
    EXPECT_FALSE(
        RecordFileReader(path + ".nope", kTestMagic, 4).otherVersion());
    // Shorter than the 8-byte header: damage, whatever the version.
    ASSERT_TRUE(truncateFileForTesting(path, 6));
    EXPECT_FALSE(RecordFileReader(path, kTestMagic, 4).otherVersion());
    EXPECT_FALSE(RecordFileReader(path, kTestMagic, 3).ok());
    ::unlink(path.c_str());
}

TEST(RecordFileTest, FlippedBitAndTruncationAreStickyDamage)
{
    const std::string path = recordFilePath("damage");
    {
        RecordFileWriter writer(path, kTestMagic, 1);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.append(patternRecord(512, 9)));
        ASSERT_TRUE(writer.append(patternRecord(512, 10)));
        ASSERT_TRUE(writer.commit());
    }
    struct stat st;
    ASSERT_EQ(::stat(path.c_str(), &st), 0);

    // Flip one payload byte of the second record: record one still
    // reads, record two is Damaged, and damage is sticky.
    {
        int fd = ::open(path.c_str(), O_RDWR);
        ASSERT_GE(fd, 0);
        const off_t target = st.st_size - 100;
        uint8_t byte = 0;
        ASSERT_EQ(::pread(fd, &byte, 1, target), 1);
        byte ^= 0x01;
        ASSERT_EQ(::pwrite(fd, &byte, 1, target), 1);
        ::close(fd);

        RecordFileReader reader(path, kTestMagic, 1);
        ASSERT_TRUE(reader.ok());
        std::vector<uint8_t> out;
        ASSERT_EQ(reader.next(out),
                  RecordFileReader::Status::Record);
        EXPECT_EQ(out, patternRecord(512, 9));
        EXPECT_EQ(reader.next(out),
                  RecordFileReader::Status::Damaged);
        EXPECT_TRUE(out.empty());
        EXPECT_EQ(reader.next(out),
                  RecordFileReader::Status::Damaged);
    }

    // Truncation mid-record: Damaged, not a short read or End.
    ASSERT_EQ(::truncate(path.c_str(), st.st_size - 10), 0);
    {
        RecordFileReader reader(path, kTestMagic, 1);
        ASSERT_TRUE(reader.ok());
        std::vector<uint8_t> out;
        ASSERT_EQ(reader.next(out),
                  RecordFileReader::Status::Record);
        EXPECT_EQ(reader.next(out),
                  RecordFileReader::Status::Damaged);
    }

    // Truncation inside the header: the open itself fails.
    ASSERT_EQ(::truncate(path.c_str(), 5), 0);
    EXPECT_FALSE(RecordFileReader(path, kTestMagic, 1).ok());
    ::unlink(path.c_str());
}

} // namespace
} // namespace archval
