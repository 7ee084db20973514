// Differential tests for CRC-32 against the byte-at-a-time oracle, plus the
// standard check vector. The dispatched crc32() is swept first; then every
// compiled variant (slice8 and, where the CPU has it, the PCLMUL folding
// kernel) is swept over start offsets 0-15 and lengths 0-300, so every
// head/tail combination of both the 8-byte and the 64/16-byte main loops
// runs, and over the block and datagram sizes the system checksums.
#include "common/crc32.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/wire.h"

namespace fabec {
namespace {

TEST(Crc32Test, StandardCheckVector) {
  // The canonical IEEE 802.3 check value: crc32("123456789") = 0xCBF43926.
  const std::string s = "123456789";
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  EXPECT_EQ(crc32(p, s.size()), 0xCBF43926u);
  EXPECT_EQ(crc32_reference(p, s.size()), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInput) {
  EXPECT_EQ(crc32(nullptr, 0), crc32_reference(nullptr, 0));
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, MatchesReferenceAllLengthsAndOffsets) {
  Rng rng(0xC4C32);
  std::vector<std::uint8_t> buf(300 + 16);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t len = 0; len <= 300; ++len) {
    const std::size_t off = len % 9;  // walk the 8-byte alignment classes
    ASSERT_EQ(crc32(buf.data() + off, len),
              crc32_reference(buf.data() + off, len))
        << "len=" << len << " off=" << off;
  }
}

TEST(Crc32Test, MatchesReferenceLargeRandomBlocks) {
  Rng rng(0xC4C33);
  for (std::size_t len : {4096u, 65536u, 65539u}) {
    std::vector<std::uint8_t> buf(len);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
    ASSERT_EQ(crc32(buf.data(), len), crc32_reference(buf.data(), len))
        << "len=" << len;
  }
}

class Crc32KernelTest : public ::testing::TestWithParam<const Crc32Kernel*> {
 protected:
  static std::vector<std::uint8_t> random_bytes(std::uint64_t seed,
                                                std::size_t n) {
    Rng rng(seed);
    std::vector<std::uint8_t> buf(n);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
    return buf;
  }
};

TEST_P(Crc32KernelTest, MatchesReferenceEveryOffsetAndShortLength) {
  const Crc32Kernel& k = *GetParam();
  const auto buf = random_bytes(0xC4C34, 300 + 16);
  for (std::size_t off = 0; off < 16; ++off)
    for (std::size_t len = 0; len <= 300; ++len)
      ASSERT_EQ(k.fn(buf.data() + off, len),
                crc32_reference(buf.data() + off, len))
          << k.name << " len=" << len << " off=" << off;
}

TEST_P(Crc32KernelTest, MatchesReferenceAtBlockAndDatagramSizes) {
  const Crc32Kernel& k = *GetParam();
  // A Modify request carries the old and the new 4 KiB block plus its
  // header: the largest message a healthy block write checksums.
  const std::size_t modify_req = core::encoded_size(
      core::ModifyReq{1, 1, 0, Block(4096, 0x11), Block(4096, 0x22),
                      Timestamp{}, Timestamp{}});
  ASSERT_GT(modify_req, 8192u);
  for (std::size_t len : {std::size_t{63}, std::size_t{64}, std::size_t{65},
                          std::size_t{4095}, std::size_t{4096},
                          std::size_t{4097}, modify_req, std::size_t{65539}}) {
    const auto buf = random_bytes(0xC4C35 + len, len + 16);
    for (std::size_t off : {0u, 1u, 7u, 8u, 15u})
      ASSERT_EQ(k.fn(buf.data() + off, len),
                crc32_reference(buf.data() + off, len))
          << k.name << " len=" << len << " off=" << off;
  }
}

std::string KernelName(
    const ::testing::TestParamInfo<const Crc32Kernel*>& info) {
  return info.param->name;
}

INSTANTIATE_TEST_SUITE_P(AllCompiledVariants, Crc32KernelTest,
                         ::testing::ValuesIn(crc32_compiled_kernels()),
                         KernelName);

TEST(Crc32DispatchTest, PortableVariantIsAlwaysCompiledFirst) {
  ASSERT_FALSE(crc32_compiled_kernels().empty());
  EXPECT_STREQ(crc32_compiled_kernels().front()->name, "slice8");
}

}  // namespace
}  // namespace fabec
