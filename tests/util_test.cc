/**
 * @file
 * Unit tests for the util substrate: strings, stats, CSV, RNG, flags,
 * CRC-32C, the byte codec and the file layer.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>

#include "util/bytes.hh"
#include "util/crc32c.hh"
#include "util/csv.hh"
#include "util/fileio.hh"
#include "util/flags.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/strings.hh"
#include "util/units.hh"

namespace mercury {
namespace {

TEST(Strings, TrimStripsBothEnds)
{
    EXPECT_EQ(trim("  hello \t\n"), "hello");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, SplitPreservesEmptyFields)
{
    auto parts = split("a,b,,d", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "d");
}

TEST(Strings, SplitSingleField)
{
    auto parts = split("abc", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitWhitespaceDropsEmpties)
{
    auto parts = splitWhitespace("  a \t b\nc  ");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
}

TEST(Strings, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("--flag", "--"));
    EXPECT_FALSE(startsWith("-", "--"));
    EXPECT_TRUE(endsWith("file.dot", ".dot"));
    EXPECT_FALSE(endsWith("dot", "file.dot"));
}

TEST(Strings, ParseDoubleAcceptsFullMatchOnly)
{
    EXPECT_DOUBLE_EQ(*parseDouble("3.25"), 3.25);
    EXPECT_DOUBLE_EQ(*parseDouble(" -1e3 "), -1000.0);
    EXPECT_FALSE(parseDouble("3.25x").has_value());
    EXPECT_FALSE(parseDouble("").has_value());
    EXPECT_FALSE(parseDouble("abc").has_value());
}

TEST(Strings, ParseDoubleRejectsNonFinite)
{
    // strtod parses all of these; every text input (fiddle lines,
    // trace CSVs, configs, flags) must not.
    for (const char *text : {"nan", "NaN", "-nan", "inf", "-inf",
                             "infinity", "1e999"})
        EXPECT_FALSE(parseDouble(text).has_value()) << text;
    EXPECT_DOUBLE_EQ(*parseDouble("1e300"), 1e300);
}

TEST(Strings, ParseDoublePinsStrtodAnswers)
{
    // Inputs on which a bare std::from_chars disagrees with strtod;
    // parseDouble gives strtod's answer on every row, bit for bit.
    struct Row
    {
        const char *text;
        std::optional<double> value;
    };
    const Row rows[] = {
        {"+1", 1.0},
        {" 1", 1.0},
        {"1 ", 1.0},
        {"1e-310", std::nullopt},   // subnormal
        {"4.9e-324", std::nullopt}, // the smallest subnormal
        {"2.2250738585072011e-308", std::nullopt}, // just below DBL_MIN
        {"0x1p3", 8.0},
        {"inf", std::nullopt},
        {"nan", std::nullopt},
        {"-0", -0.0},
        {"1e-400", std::nullopt}, // underflows to zero
        {"0e999", 0.0},
        {"+-1", std::nullopt},
        {"-0x1p3", -8.0},
        {"+.5", 0.5},
        {"5.", 5.0},
        {".", std::nullopt},
        {"0x", std::nullopt},
        {"1e+", std::nullopt},
        {" +1 ", 1.0},
        {"\t2\n", 2.0},
    };
    for (const Row &row : rows) {
        std::optional<double> got = parseDouble(row.text);
        ASSERT_EQ(got.has_value(), row.value.has_value()) << row.text;
        if (row.value) {
            EXPECT_EQ(std::bit_cast<uint64_t>(*got),
                      std::bit_cast<uint64_t>(*row.value))
                << row.text;
        }
    }
}

TEST(Strings, ParseIntAndBool)
{
    EXPECT_EQ(*parseInt("42"), 42);
    EXPECT_EQ(*parseInt("-7"), -7);
    EXPECT_FALSE(parseInt("4.2").has_value());
    EXPECT_TRUE(*parseBool("TRUE"));
    EXPECT_FALSE(*parseBool("off"));
    EXPECT_FALSE(parseBool("maybe").has_value());
}

TEST(Strings, FormatMatchesPrintf)
{
    EXPECT_EQ(format("%d-%s-%.1f", 3, "x", 2.5), "3-x-2.5");
}

TEST(Units, CfmRoundTrip)
{
    double cfm = 38.6;
    EXPECT_NEAR(units::m3PerSToCfm(units::cfmToM3PerS(cfm)), cfm, 1e-9);
}

TEST(Units, Table1FanMassFlow)
{
    // 38.6 CFM of air is about 21.6 grams per second.
    double kg_per_s = units::cfmToKgPerS(38.6);
    EXPECT_NEAR(kg_per_s, 0.0216, 0.0005);
}

TEST(RunningStats, KnownMoments)
{
    RunningStats stats;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stats.add(v);
    EXPECT_EQ(stats.count(), 8u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 4.0);
    EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, MergeEqualsCombinedStream)
{
    RunningStats a;
    RunningStats b;
    RunningStats whole;
    for (int i = 0; i < 50; ++i) {
        double v = std::sin(i * 0.7) * 10.0;
        (i % 2 ? a : b).add(v);
        whole.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), whole.min());
    EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(TimeSeries, InterpolatesLinearly)
{
    TimeSeries ts("t");
    ts.add(0.0, 10.0);
    ts.add(10.0, 20.0);
    EXPECT_DOUBLE_EQ(ts.sampleAt(5.0), 15.0);
    EXPECT_DOUBLE_EQ(ts.sampleAt(-1.0), 10.0); // clamped
    EXPECT_DOUBLE_EQ(ts.sampleAt(99.0), 20.0); // clamped
}

TEST(TimeSeries, MaxAbsErrorAgainstShiftedCopy)
{
    TimeSeries a("a");
    TimeSeries b("b");
    for (int i = 0; i <= 100; ++i) {
        a.add(i, std::sin(i * 0.1));
        b.add(i, std::sin(i * 0.1) + 0.5);
    }
    EXPECT_NEAR(a.maxAbsError(b), 0.5, 1e-12);
    EXPECT_NEAR(a.meanAbsError(b), 0.5, 1e-12);
}

TEST(TimeSeries, FirstTimeAbove)
{
    TimeSeries ts("t");
    ts.add(0.0, 1.0);
    ts.add(5.0, 3.0);
    ts.add(10.0, 7.0);
    EXPECT_DOUBLE_EQ(ts.firstTimeAbove(3.0), 5.0);
    EXPECT_DOUBLE_EQ(ts.firstTimeAbove(100.0), -1.0);
}

TEST(Histogram, QuantileOfUniformFill)
{
    Histogram hist(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        hist.add(i + 0.5);
    EXPECT_NEAR(hist.quantile(0.5), 50.0, 2.0);
    EXPECT_NEAR(hist.quantile(0.99), 99.0, 2.0);
}

TEST(Histogram, MergeAddsCounts)
{
    Histogram a(0.0, 10.0, 10);
    Histogram b(0.0, 10.0, 10);
    a.add(1.0);
    a.add(2.0);
    b.add(2.0);
    b.add(9.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.binAt(2), 2u); // both 2.0 samples
    EXPECT_EQ(a.binAt(9), 1u);
}

TEST(Histogram, MergeShapeMismatchPanics)
{
    Histogram a(0.0, 10.0, 10);
    Histogram b(0.0, 10.0, 20);
    EXPECT_DEATH(a.merge(b), "shape mismatch");
}

TEST(Csv, RowStringsEscapes)
{
    std::ostringstream out;
    CsvWriter writer(out, {"name", "value"});
    writer.rowStrings({"a,b", "plain"});
    EXPECT_EQ(out.str(), "name,value\n\"a,b\",plain\n");
}

TEST(Histogram, ClampsOutOfRange)
{
    Histogram hist(0.0, 10.0, 10);
    hist.add(-5.0);
    hist.add(50.0);
    EXPECT_EQ(hist.binAt(0), 1u);
    EXPECT_EQ(hist.binAt(9), 1u);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniform(2.0, 3.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, UniformIntCoversBothEndpoints)
{
    Rng rng(11);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        int64_t v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo = saw_lo || v == 0;
        saw_hi = saw_hi || v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(42);
    RunningStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(rng.gaussian(5.0, 2.0));
    EXPECT_NEAR(stats.mean(), 5.0, 0.1);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(9);
    RunningStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(rng.exponential(4.0));
    EXPECT_NEAR(stats.mean(), 0.25, 0.02);
}

TEST(Csv, EscapesSpecialCells)
{
    EXPECT_EQ(csvEscape("plain"), "plain");
    EXPECT_EQ(csvEscape("a,b"), "\"a,b\"");
    EXPECT_EQ(csvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WriterEmitsHeaderAndRows)
{
    std::ostringstream out;
    CsvWriter writer(out, {"time_s", "temp_c"});
    writer.row({1.0, 21.5});
    writer.row({2.0, 22.0});
    EXPECT_EQ(out.str(), "time_s,temp_c\n1,21.5\n2,22\n");
    EXPECT_EQ(writer.rowsWritten(), 2u);
}

TEST(Csv, RowBytesEqualPrintfPercentPointSixG)
{
    const double values[] = {
        0.0,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        2.2250738585072009e-308, // largest subnormal
        1e-7,
        1e21,
        -1e21,
        123456.5,
        1234567.0,
        0.000123456789,
        21.6,
        -40.25,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
    };
    for (double value : values) {
        std::ostringstream out;
        CsvWriter writer(out, {"a", "b"});
        writer.row({value, 1.0});
        char expected[64];
        std::snprintf(expected, sizeof(expected), "%.6g,1\n", value);
        EXPECT_EQ(out.str(), std::string("a,b\n") + expected)
            << "value bits " << std::hex
            << std::bit_cast<uint64_t>(value);
    }
}

TEST(Csv, AlignedSeriesInterpolatesSecondColumn)
{
    TimeSeries a("a");
    a.add(0.0, 1.0);
    a.add(2.0, 3.0);
    TimeSeries b("b");
    b.add(0.0, 10.0);
    b.add(4.0, 30.0);
    std::ostringstream out;
    writeAlignedSeries(out, {&a, &b});
    EXPECT_EQ(out.str(), "time_s,a,b\n0,1,10\n2,3,20\n");
}

TEST(Flags, ParsesAllForms)
{
    FlagSet flags("prog", "test");
    flags.defineString("name", "default", "a name");
    flags.defineDouble("ratio", 1.5, "a ratio");
    flags.defineInt("count", 10, "a count");
    flags.defineBool("verbose", false, "chatty");
    const char *argv[] = {"prog", "--name", "mercury", "--ratio=2.5",
                          "--verbose", "pos1"};
    ASSERT_TRUE(flags.parse(6, argv));
    EXPECT_EQ(flags.getString("name"), "mercury");
    EXPECT_DOUBLE_EQ(flags.getDouble("ratio"), 2.5);
    EXPECT_EQ(flags.getInt("count"), 10);
    EXPECT_TRUE(flags.getBool("verbose"));
    EXPECT_TRUE(flags.provided("name"));
    EXPECT_FALSE(flags.provided("count"));
    ASSERT_EQ(flags.positional().size(), 1u);
    EXPECT_EQ(flags.positional()[0], "pos1");
}

TEST(FlagsDeathTest, RejectsMalformedDoubles)
{
    FlagSet flags("prog", "test");
    flags.defineDouble("ratio", 1.5, "a ratio");
    {
        const char *argv[] = {"prog", "--ratio=10x"};
        EXPECT_DEATH(flags.parse(2, argv),
                     "trailing garbage after '10'");
    }
    {
        const char *argv[] = {"prog", "--ratio=abc"};
        EXPECT_DEATH(flags.parse(2, argv), "not a number");
    }
    {
        const char *argv[] = {"prog", "--ratio="};
        EXPECT_DEATH(flags.parse(2, argv), "empty value");
    }
    {
        const char *argv[] = {"prog", "--ratio=1e999"};
        EXPECT_DEATH(flags.parse(2, argv),
                     "out of range for a double");
    }
}

TEST(FlagsDeathTest, RejectsNonFiniteDoubles)
{
    // strtod happily parses "nan" and "inf"; a NaN threshold would
    // silently disable every comparison against it downstream.
    FlagSet flags("prog", "test");
    flags.defineDouble("ratio", 1.5, "a ratio");
    {
        const char *argv[] = {"prog", "--ratio=nan"};
        EXPECT_DEATH(flags.parse(2, argv), "must be finite");
    }
    {
        const char *argv[] = {"prog", "--ratio=inf"};
        EXPECT_DEATH(flags.parse(2, argv), "must be finite");
    }
    {
        const char *argv[] = {"prog", "--ratio=-inf"};
        EXPECT_DEATH(flags.parse(2, argv), "must be finite");
    }
}

TEST(FlagsDeathTest, RejectsMalformedInts)
{
    FlagSet flags("prog", "test");
    flags.defineInt("count", 10, "a count");
    {
        const char *argv[] = {"prog", "--count=7.5"};
        EXPECT_DEATH(flags.parse(2, argv),
                     "trailing garbage after '7'");
    }
    {
        const char *argv[] = {"prog", "--count=99999999999999999999"};
        EXPECT_DEATH(flags.parse(2, argv),
                     "out of range for a 64-bit integer");
    }
    {
        const char *argv[] = {"prog", "--count=x"};
        EXPECT_DEATH(flags.parse(2, argv), "not an integer");
    }
}

TEST(FileIo, AtomicWriteReplacesWholeFiles)
{
    const std::string path =
        "/tmp/mercury_util_test.atomic." + std::to_string(::getpid());
    std::remove(path.c_str());

    std::string error;
    ASSERT_TRUE(atomicWriteFile(path, "8367\n", &error)) << error;
    {
        std::ifstream in(path);
        std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
        EXPECT_EQ(content, "8367\n");
    }

    // Overwrite: readers see old or new, and no .tmp litter remains.
    ASSERT_TRUE(atomicWriteFile(path, "9412\n", &error)) << error;
    {
        std::ifstream in(path);
        std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
        EXPECT_EQ(content, "9412\n");
    }
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());

    // A failure leaves the destination untouched.
    EXPECT_FALSE(atomicWriteFile("/nonexistent-dir/nope/file", "x",
                                 &error));
    EXPECT_FALSE(error.empty());

    std::remove(path.c_str());
}

TEST(FileIo, ReadFileBytesHonoursItsCeiling)
{
    const std::string path =
        "/tmp/mercury_util_test.read." + std::to_string(::getpid());
    std::string error;
    ASSERT_TRUE(atomicWriteFile(path, "0123456789", &error)) << error;

    std::vector<uint8_t> bytes;
    ASSERT_TRUE(readFileBytes(path, 10, &bytes, &error)) << error;
    EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "0123456789");

    EXPECT_FALSE(readFileBytes(path, 9, &bytes, &error));
    EXPECT_NE(error.find("implausible file size 10"), std::string::npos)
        << error;
    EXPECT_FALSE(readFileBytes(path + ".missing", 10, &bytes, &error));
    EXPECT_NE(error.find("open"), std::string::npos) << error;
    std::remove(path.c_str());
}

/** One of everything the codec writes, in a known layout. */
std::vector<uint8_t>
sampleBuffer()
{
    std::vector<uint8_t> bytes;
    ByteWriter out(bytes);
    out.u8(0xab);
    out.u16(0x1234);
    out.u32(0xdeadbeef);
    out.u64(0x0102030405060708ull);
    out.f64(-2.5);
    out.string8("cpu");
    out.string32("machine-7");
    out.u32(3); // a count
    out.bytes("pad", 3);
    out.zeros(5);
    return bytes;
}

/** Read sampleBuffer()'s layout back; true when every field matched. */
bool
readSample(ByteReader &in)
{
    bool same = in.u8() == 0xab;
    same = in.u16() == 0x1234 && same;
    same = in.u32() == 0xdeadbeef && same;
    same = in.u64() == 0x0102030405060708ull && same;
    same = in.f64() == -2.5 && same;
    same = in.string8(31) == "cpu" && same;
    same = in.string32(64) == "machine-7" && same;
    same = in.count(16, "widget") == 3 && same;
    same = in.fixedString(8) == "pad" && same;
    return in.ok() && same;
}

TEST(Bytes, LittleEndianRoundTrip)
{
    std::vector<uint8_t> bytes = sampleBuffer();
    ASSERT_EQ(bytes.size(), 1 + 2 + 4 + 8 + 8 + 4 + 13 + 4 + 8u);
    EXPECT_EQ(bytes[1], 0x34); // least significant byte first
    EXPECT_EQ(bytes[3], 0xef);
    ByteReader in(bytes.data(), bytes.size());
    EXPECT_TRUE(readSample(in)) << in.error();
    EXPECT_EQ(in.remaining(), 0u);

    // A fixed buffer takes the same bytes; overflowing it panics.
    uint8_t fixed[4] = {};
    ByteWriter packet(fixed, sizeof(fixed));
    packet.u32(0xdeadbeef);
    EXPECT_EQ(fixed[0], 0xef);
    EXPECT_DEATH(packet.u8(1), "do not fit");
}

TEST(Bytes, EveryTruncationFailsCleanly)
{
    std::vector<uint8_t> bytes = sampleBuffer();
    for (size_t length = 0; length < bytes.size(); ++length) {
        // A copy of exactly the prefix, so ASan catches any overread.
        std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + length);
        ByteReader in(prefix.data(), prefix.size());
        EXPECT_FALSE(readSample(in)) << length;
        EXPECT_FALSE(in.ok()) << length;
        EXPECT_NE(in.error().find("truncated"), std::string::npos)
            << in.error();
        EXPECT_LE(in.errorOffset(), length);
    }
}

TEST(Bytes, CeilingsAndNonFiniteDoublesFail)
{
    std::vector<uint8_t> bytes;
    ByteWriter out(bytes);
    out.string8("component");
    out.string32("a-long-machine-name");
    out.u32(17);
    {
        ByteReader in(bytes.data(), bytes.size());
        EXPECT_EQ(in.string8(8), "");
        EXPECT_FALSE(in.ok());
        EXPECT_EQ(in.errorOffset(), 0u);
        EXPECT_NE(in.error().find("string length 9"), std::string::npos)
            << in.error();
    }
    {
        ByteReader in(bytes.data(), bytes.size());
        EXPECT_EQ(in.string8(9), "component");
        EXPECT_EQ(in.string32(18), "");
        EXPECT_EQ(in.errorOffset(), 10u);
    }
    {
        ByteReader in(bytes.data(), bytes.size());
        in.string8(9);
        in.string32(19);
        EXPECT_EQ(in.count(16, "widget"), 0u);
        EXPECT_NE(in.error().find("absurd widget count 17 at offset 33"),
                  std::string::npos)
            << in.error();
    }

    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
        std::vector<uint8_t> doubles;
        ByteWriter writer(doubles);
        writer.f64(1.0);
        writer.f64(bad);
        ByteReader in(doubles.data(), doubles.size());
        EXPECT_EQ(in.f64(), 1.0);
        EXPECT_EQ(in.f64(), 0.0);
        EXPECT_FALSE(in.ok());
        EXPECT_EQ(in.errorOffset(), 8u);
        EXPECT_EQ(in.error(), "non-finite double at offset 8");
    }
}

TEST(Bytes, FirstFailureLatches)
{
    std::vector<uint8_t> bytes = sampleBuffer();
    ByteReader in(bytes.data(), bytes.size());
    in.u8();
    in.fail("caller's range check");
    // Later reads return zero and never overwrite the first error.
    EXPECT_EQ(in.u16(), 0u);
    EXPECT_EQ(in.u64(), 0u);
    EXPECT_EQ(in.string32(64), "");
    EXPECT_EQ(in.bytes(1), nullptr);
    in.fail("second");
    EXPECT_EQ(in.errorOffset(), 1u);
    EXPECT_EQ(in.error(), "caller's range check at offset 1");
    EXPECT_EQ(in.offset(), 1u);
}

TEST(Flags, HelpReturnsFalse)
{
    FlagSet flags("prog", "test");
    flags.defineInt("n", 1, "num");
    const char *argv[] = {"prog", "--help"};
    EXPECT_FALSE(flags.parse(2, argv));
}

TEST(Crc32c, KnownAnswer)
{
    // The CRC-32C check value (RFC 3720 / iSCSI, "123456789").
    const uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    EXPECT_EQ(crc32c(digits, sizeof(digits)), 0xE3069283u);
    EXPECT_EQ(crc32cSoftware(digits, sizeof(digits)), 0xE3069283u);
    EXPECT_EQ(crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, HardwareAndSoftwarePathsAgreeOnEveryLength)
{
    // Every length 0..257 covers the 8-byte word loop, every tail
    // length, and both at unaligned starts (offset 1).
    std::vector<uint8_t> bytes(1 + 257); // largest offset + length
    Rng rng(7);
    for (uint8_t &byte : bytes)
        byte = static_cast<uint8_t>(rng.uniformInt(0, 255));
    for (size_t offset : {size_t{0}, size_t{1}}) {
        for (size_t length = 0; length <= 257; ++length) {
            const uint8_t *data = bytes.data() + offset;
            EXPECT_EQ(crc32c(data, length), crc32cSoftware(data, length))
                << "offset " << offset << " length " << length;
        }
    }
}

} // namespace
} // namespace mercury
