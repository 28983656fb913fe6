// Unit and property tests for src/util: status propagation, serialization round-trips,
// SHA-256 / HMAC against published vectors, PRNG and Zipf distribution sanity.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/hmac.h"
#include "src/util/rng.h"
#include "src/util/serial.h"
#include "src/util/sha256.h"
#include "src/util/sha256_internal.h"
#include "src/util/status.h"
#include "src/util/strings.h"
#include "tests/block_path_test.h"

namespace globe {
namespace {

// ---------------------------------------------------------------- Status / Result

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("no such object");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no such object");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such object");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (uint8_t c = 0; c <= 9; ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) {
    return InvalidArgument("not positive");
  }
  return x;
}

Status UsePositive(int x, int* out) {
  ASSIGN_OR_RETURN(int v, ParsePositive(x));
  *out = v * 2;
  return OkStatus();
}

TEST(ResultTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UsePositive(5, &out).ok());
  EXPECT_EQ(out, 10);
  Status s = UsePositive(-1, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Bytes / hex

TEST(BytesTest, HexRoundTrip) {
  Bytes b = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(HexEncode(b), "0001abff");
  Bytes decoded;
  ASSERT_TRUE(HexDecode("0001abff", &decoded));
  EXPECT_EQ(decoded, b);
}

TEST(BytesTest, HexDecodeRejectsOddLength) {
  Bytes out;
  EXPECT_FALSE(HexDecode("abc", &out));
}

TEST(BytesTest, HexDecodeRejectsNonHex) {
  Bytes out;
  EXPECT_FALSE(HexDecode("zz", &out));
}

TEST(BytesTest, HexDecodeAcceptsUppercase) {
  Bytes out;
  ASSERT_TRUE(HexDecode("ABFF", &out));
  EXPECT_EQ(out, (Bytes{0xab, 0xff}));
}

TEST(BytesTest, ConstantTimeEqual) {
  Bytes a = {1, 2, 3};
  Bytes b = {1, 2, 3};
  Bytes c = {1, 2, 4};
  Bytes d = {1, 2};
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, c));
  EXPECT_FALSE(ConstantTimeEqual(a, d));
}

TEST(BytesTest, StringRoundTrip) {
  std::string s = "hello\0world";
  EXPECT_EQ(ToString(ToBytes(s)), s);
}

// ---------------------------------------------------------------- Serialization

TEST(SerialTest, FixedWidthRoundTrip) {
  ByteWriter w;
  w.WriteU8(0xab);
  w.WriteU16(0x1234);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefULL);
  w.WriteBool(true);

  ByteReader r(w.data());
  EXPECT_EQ(r.ReadU8().value(), 0xab);
  EXPECT_EQ(r.ReadU16().value(), 0x1234);
  EXPECT_EQ(r.ReadU32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64().value(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.ReadBool().value());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerialTest, VarintBoundaries) {
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, 0xffffffffULL,
                     0xffffffffffffffffULL}) {
    ByteWriter w;
    w.WriteVarint(v);
    ByteReader r(w.data());
    auto got = r.ReadVarint();
    ASSERT_TRUE(got.ok()) << v;
    EXPECT_EQ(*got, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(SerialTest, StringAndBlobRoundTrip) {
  ByteWriter w;
  w.WriteString("globe");
  w.WriteLengthPrefixed(Bytes{9, 8, 7});
  w.WriteString("");

  ByteReader r(w.data());
  EXPECT_EQ(r.ReadString().value(), "globe");
  EXPECT_EQ(r.ReadLengthPrefixed().value(), (Bytes{9, 8, 7}));
  EXPECT_EQ(r.ReadString().value(), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerialTest, TruncatedReadsFailCleanly) {
  ByteWriter w;
  w.WriteU32(7);
  Bytes data = w.Take();
  data.pop_back();
  ByteReader r(data);
  auto got = r.ReadU32();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kOutOfRange);
}

TEST(SerialTest, LengthPrefixBeyondDataFails) {
  ByteWriter w;
  w.WriteVarint(1000);  // claims 1000 bytes follow
  w.WriteU8(1);
  ByteReader r(w.data());
  auto got = r.ReadLengthPrefixed();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kOutOfRange);
}

TEST(SerialTest, BoolRejectsJunk) {
  Bytes data = {7};
  ByteReader r(data);
  EXPECT_FALSE(r.ReadBool().ok());
}

TEST(SerialTest, OverlongVarintFails) {
  Bytes data(11, 0xff);  // continuation forever
  ByteReader r(data);
  EXPECT_FALSE(r.ReadVarint().ok());
}

// Property test: random mixed payloads round-trip exactly.
class SerialPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerialPropertyTest, RandomRoundTrip) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<uint64_t> ints;
    std::vector<Bytes> blobs;
    ByteWriter w;
    int n = static_cast<int>(rng.UniformInt(20)) + 1;
    for (int i = 0; i < n; ++i) {
      uint64_t v = rng.NextU64() >> rng.UniformInt(64);
      ints.push_back(v);
      w.WriteVarint(v);
      Bytes blob = rng.RandomBytes(rng.UniformInt(100));
      blobs.push_back(blob);
      w.WriteLengthPrefixed(blob);
    }
    ByteReader r(w.data());
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(r.ReadVarint().value(), ints[i]);
      EXPECT_EQ(r.ReadLengthPrefixed().value(), blobs[i]);
    }
    EXPECT_TRUE(r.AtEnd());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerialPropertyTest, ::testing::Values(1, 2, 3, 42, 1000));

// ---------------------------------------------------------------- SHA-256 vectors

// Each vector runs through both block functions (see block_path_test.h).
using Sha256Test = testutil::BlockPathTest;
GLOBE_INSTANTIATE_BLOCK_PATHS(Sha256Test);

// Vectors from FIPS 180-4 / NIST CAVS.
TEST_P(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::HexDigest({}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST_P(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::HexDigest(ToBytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST_P(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::HexDigest(ToBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST_P(Sha256Test, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  auto digest = h.Finish();
  EXPECT_EQ(HexEncode(ByteSpan(digest.data(), digest.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256Test, ExactBlockBoundary) {
  // 64 bytes: padding goes entirely into a second block.
  Bytes data(64, 'x');
  Sha256 streaming;
  streaming.Update(ByteSpan(data.data(), 31));
  streaming.Update(ByteSpan(data.data() + 31, 33));
  auto a = streaming.Finish();
  auto b = Sha256::Digest(data);
  EXPECT_EQ(a, b);
}

TEST_P(Sha256Test, StreamingEqualsOneShotOnRandomChunks) {
  Rng rng(7);
  Bytes data = rng.RandomBytes(10000);
  Sha256 streaming;
  size_t pos = 0;
  while (pos < data.size()) {
    size_t n = std::min<size_t>(rng.UniformInt(257), data.size() - pos);
    streaming.Update(ByteSpan(data.data() + pos, n));
    pos += n;
  }
  EXPECT_EQ(streaming.Finish(), Sha256::Digest(data));
}

// The block functions against each other, and the choice between them.

// Random messages of every length 0-2048 bytes (so 55, 56, 63, 64, 65, 119, 120
// and 128, where the padding changes shape) and one of 1 MiB, each fed in random
// chunks (empty ones included) identically to both functions.
TEST(Sha256BlockFunctionTest, AcceleratedDigestsEqualPortable) {
  sha256_internal::BlockFunction accelerated = sha256_internal::AcceleratedBlockFunction();
  if (accelerated == nullptr) {
    GTEST_SKIP() << "CPU lacks " << sha256_internal::MissingCpuFeature();
  }
  Rng rng(20);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 2048; ++n) {
    lengths.push_back(n);
  }
  lengths.push_back(size_t{1} << 20);
  for (size_t length : lengths) {
    Bytes message = rng.RandomBytes(length);
    std::vector<size_t> chunks;
    for (size_t fed = 0; fed < length;) {
      size_t n = std::min<size_t>(rng.UniformInt(length < 4096 ? 200 : 70000), length - fed);
      chunks.push_back(n);
      fed += n;
    }
    auto digest_with = [&](sha256_internal::BlockFunction fn) {
      sha256_internal::ScopedBlockFunction use(fn);
      Sha256 h;
      size_t pos = 0;
      for (size_t n : chunks) {
        h.Update(ByteSpan(message.data() + pos, n));
        pos += n;
      }
      return h.Finish();
    };
    ASSERT_EQ(digest_with(accelerated), digest_with(sha256_internal::CompressPortable))
        << "length " << length;
  }
}

// The raw functions from arbitrary (not only reachable) states over runs of
// 1-20 blocks: the accelerated one's state shuffles must round-trip every word.
TEST(Sha256BlockFunctionTest, AcceleratedCompressesLikePortableFromAnyState) {
  sha256_internal::BlockFunction accelerated = sha256_internal::AcceleratedBlockFunction();
  if (accelerated == nullptr) {
    GTEST_SKIP() << "CPU lacks " << sha256_internal::MissingCpuFeature();
  }
  Rng rng(21);
  for (int trial = 0; trial < 200; ++trial) {
    uint32_t portable[8];
    uint32_t fast[8];
    for (int i = 0; i < 8; ++i) {
      portable[i] = fast[i] = static_cast<uint32_t>(rng.NextU64());
    }
    size_t count = 1 + rng.UniformInt(20);
    Bytes blocks = rng.RandomBytes(count * Sha256::kBlockSize);
    sha256_internal::CompressPortable(portable, blocks.data(), count);
    accelerated(fast, blocks.data(), count);
    ASSERT_TRUE(std::equal(portable, portable + 8, fast)) << "trial " << trial;
  }
}

TEST(Sha256BlockFunctionTest, RunsAcceleratedExactlyWhenTheCpuHasIt) {
  sha256_internal::BlockFunction accelerated = sha256_internal::AcceleratedBlockFunction();
  EXPECT_EQ(accelerated == nullptr, !sha256_internal::MissingCpuFeature().empty());
  EXPECT_EQ(sha256_internal::ActiveBlockFunction(),
            accelerated != nullptr ? accelerated : sha256_internal::CompressPortable);
}

// ---------------------------------------------------------------- HMAC vectors

using HmacTest = testutil::BlockPathTest;
GLOBE_INSTANTIATE_BLOCK_PATHS(HmacTest);

// RFC 4231 test case 1.
TEST_P(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Bytes mac = HmacSha256(key, ToBytes("Hi There"));
  EXPECT_EQ(HexEncode(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST_P(HmacTest, Rfc4231Case2) {
  Bytes mac = HmacSha256(ToBytes("Jefe"), ToBytes("what do ya want for nothing?"));
  EXPECT_EQ(HexEncode(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 20x 0xaa key, 50x 0xdd data.
TEST_P(HmacTest, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(HexEncode(HmacSha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key longer than block size.
TEST_P(HmacTest, LongKeyIsHashedFirst) {
  Bytes key(131, 0xaa);
  Bytes mac = HmacSha256(key, ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(HexEncode(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST_P(HmacTest, VerifyDetectsTampering) {
  Bytes key = ToBytes("secret");
  Bytes msg = ToBytes("original message");
  Bytes mac = HmacSha256(key, msg);
  EXPECT_TRUE(VerifyHmacSha256(key, msg, mac));
  Bytes tampered = msg;
  tampered[0] ^= 1;
  EXPECT_FALSE(VerifyHmacSha256(key, tampered, mac));
  Bytes bad_mac = mac;
  bad_mac[5] ^= 1;
  EXPECT_FALSE(VerifyHmacSha256(key, msg, bad_mac));
}

TEST_P(HmacTest, DifferentKeysDifferentMacs) {
  Bytes msg = ToBytes("msg");
  EXPECT_NE(HmacSha256(ToBytes("k1"), msg), HmacSha256(ToBytes("k2"), msg));
}

// HmacKey (precomputed midstates) must produce byte-identical MACs to the
// one-shot functions, for short, block-size and over-block keys.
TEST(HmacKeyTest, MatchesOneShotHmac) {
  const Bytes keys[] = {ToBytes("Jefe"), Bytes(64, 0x0b), Bytes(131, 0xaa), Bytes{}};
  const Bytes msg = ToBytes("what do ya want for nothing?");
  for (const Bytes& key : keys) {
    HmacKey prepared(key);
    EXPECT_EQ(ToBytes(prepared.Mac(msg)), HmacSha256(key, msg)) << "key size " << key.size();
  }
}

// The streaming interface over split parts equals the MAC of the concatenation
// — the property the secure transport's header+ciphertext MAC relies on.
TEST(HmacKeyTest, StreamingPartsEqualConcatenation) {
  HmacKey key(ToBytes("session-key"));
  const Bytes part1 = ToBytes("header fields|");
  const Bytes part2 = Bytes(300, 0x5c);  // "ciphertext", crosses a block boundary
  Bytes whole = part1;
  whole.insert(whole.end(), part2.begin(), part2.end());

  Sha256 inner = key.Start();
  inner.Update(part1);
  inner.Update(part2);
  EXPECT_EQ(key.Finish(std::move(inner)), key.Mac(whole));

  Sha256 verify_inner = key.Start();
  verify_inner.Update(part1);
  verify_inner.Update(part2);
  EXPECT_TRUE(key.Verify(std::move(verify_inner), key.Mac(whole)));

  Sha256 bad_inner = key.Start();
  bad_inner.Update(part2);  // wrong order
  bad_inner.Update(part1);
  EXPECT_FALSE(key.Verify(std::move(bad_inner), key.Mac(whole)));
}

// ---------------------------------------------------------------- RNG / Zipf

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformIntInBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(7), 7u);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(10);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 7000; ++i) {
    counts[rng.UniformInt(7)]++;
  }
  EXPECT_EQ(counts.size(), 7u);
  for (const auto& [v, c] : counts) {
    EXPECT_GT(c, 700) << v;  // expected 1000, allow wide slack
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(12);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.Exponential(2.0);
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(RngTest, RandomBytesLength) {
  Rng rng(13);
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 100u}) {
    EXPECT_EQ(rng.RandomBytes(n).size(), n);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(14);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler zipf(100, 1.0);
  double sum = 0;
  for (size_t i = 0; i < 100; ++i) {
    sum += zipf.Pmf(i);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, RankZeroMostPopular) {
  ZipfSampler zipf(50, 1.0);
  for (size_t i = 1; i < 50; ++i) {
    EXPECT_GE(zipf.Pmf(i - 1), zipf.Pmf(i));
  }
}

TEST(ZipfTest, EmpiricalMatchesPmf) {
  ZipfSampler zipf(20, 1.0);
  Rng rng(15);
  std::vector<int> counts(20, 0);
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    counts[zipf.Sample(&rng)]++;
  }
  for (size_t i = 0; i < 20; ++i) {
    double expected = zipf.Pmf(i) * kN;
    EXPECT_NEAR(counts[i], expected, expected * 0.15 + 30) << "rank " << i;
  }
}

// ---------------------------------------------------------------- Strings

TEST(StringsTest, Split) {
  EXPECT_EQ(Split("a/b/c", '/'), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a//b", '/'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", '/'), (std::vector<std::string>{""}));
}

TEST(StringsTest, SplitSkipEmpty) {
  EXPECT_EQ(SplitSkipEmpty("/apps/graphics/Gimp", '/'),
            (std::vector<std::string>{"apps", "graphics", "Gimp"}));
  EXPECT_EQ(SplitSkipEmpty("///", '/'), std::vector<std::string>{});
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"apps", "graphics", "Gimp"}, "/"), "apps/graphics/Gimp");
  EXPECT_EQ(Join({}, "/"), "");
  EXPECT_EQ(Join({"x"}, "."), "x");
}

TEST(StringsTest, AsciiToLower) {
  EXPECT_EQ(AsciiToLower("Gimp.GLOBE.cs.VU.nl"), "gimp.globe.cs.vu.nl");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("/apps/gimp", "/apps"));
  EXPECT_FALSE(StartsWith("/apps", "/apps/gimp"));
  EXPECT_TRUE(EndsWith("pkg.globe.cs.vu.nl", ".vu.nl"));
  EXPECT_FALSE(EndsWith("nl", ".vu.nl"));
}

TEST(StringsTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  x y\t\r\n"), "x y");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace("abc"), "abc");
}

TEST(StringsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.00 KB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.00 MB");
}

}  // namespace
}  // namespace globe
