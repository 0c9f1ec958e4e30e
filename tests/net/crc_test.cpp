/**
 * @file
 * Link CRC: the table-driven CRC-32C against the bit-at-a-time
 * definition, plus golden values that pin the wire format.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "sim/random.hpp"

namespace tg::net {
namespace {

/** Reference CRC-32C: the LSB-first polynomial 0x82f63b78, one bit per
 *  step, 64 steps per word. */
std::uint32_t
bitwiseCrc32cWord(std::uint32_t crc, std::uint64_t word)
{
    for (int b = 0; b < 64; ++b) {
        const std::uint32_t bit = (crc ^ static_cast<std::uint32_t>(word)) & 1;
        crc >>= 1;
        if (bit)
            crc ^= 0x82f63b78u;
        word >>= 1;
    }
    return crc;
}

/** Reference Packet::computeCrc over bitwiseCrc32cWord (same field
 *  packing as the production code). */
std::uint32_t
bitwiseCrc(const Packet &p)
{
    std::uint32_t c = ~0u;
    c = bitwiseCrc32cWord(c, static_cast<std::uint64_t>(p.type) |
                                 (std::uint64_t(p.src) << 8) |
                                 (std::uint64_t(p.dst) << 24) |
                                 (std::uint64_t(p.origin) << 40) |
                                 (std::uint64_t(p.vc) << 56));
    c = bitwiseCrc32cWord(c, p.addr);
    c = bitwiseCrc32cWord(c, p.addr2);
    c = bitwiseCrc32cWord(c, p.value);
    c = bitwiseCrc32cWord(c, p.value2);
    c = bitwiseCrc32cWord(c, static_cast<std::uint64_t>(p.aop) |
                                 (std::uint64_t(p.payloadBytes) << 8) |
                                 (std::uint64_t(p.tracked) << 40));
    c = bitwiseCrc32cWord(c, p.seq);
    c = bitwiseCrc32cWord(c, p.ticket);
    if (p.bulk) {
        for (const Word w : *p.bulk)
            c = bitwiseCrc32cWord(c, w);
    }
    return ~c;
}

Packet
randomPacket(Rng &rng)
{
    Packet p;
    p.type = PacketType(rng.below(std::uint64_t(PacketType::CollDown) + 1));
    p.src = NodeId(rng.next());
    p.dst = NodeId(rng.next());
    p.addr = rng.next();
    p.addr2 = rng.next();
    p.value = rng.next();
    p.value2 = rng.next();
    p.aop = AtomicOp(rng.below(3));
    p.origin = NodeId(rng.next());
    p.vc = std::uint8_t(rng.below(2));
    p.seq = rng.next();
    p.ticket = rng.next();
    p.payloadBytes = std::uint32_t(rng.next());
    p.tracked = rng.chance(0.5);
    if (rng.chance(0.5)) {
        p.bulk = std::make_shared<std::vector<Word>>(rng.below(65));
        for (Word &w : *p.bulk)
            w = rng.next();
    }
    return p;
}

TEST(Crc, WordMatchesBitwiseDefinition)
{
    Rng rng(0xc5c32);
    for (int i = 0; i < 200000; ++i) {
        const auto crc = std::uint32_t(rng.next());
        const std::uint64_t word = rng.next();
        ASSERT_EQ(crc32cWord(crc, word), bitwiseCrc32cWord(crc, word))
            << "crc=" << crc << " word=" << word;
    }
    // Edge words: all-zero, all-one and single-bit patterns.
    for (const std::uint32_t crc : {0u, ~0u, 0x80000000u, 1u}) {
        EXPECT_EQ(crc32cWord(crc, 0), bitwiseCrc32cWord(crc, 0));
        EXPECT_EQ(crc32cWord(crc, ~0ULL), bitwiseCrc32cWord(crc, ~0ULL));
        for (int b = 0; b < 64; ++b)
            EXPECT_EQ(crc32cWord(crc, 1ULL << b),
                      bitwiseCrc32cWord(crc, 1ULL << b));
    }
}

TEST(Crc, PacketMatchesBitwiseDefinition)
{
    Rng rng(0x9ac7e7);
    int with_bulk = 0;
    for (int i = 0; i < 5000; ++i) {
        const Packet p = randomPacket(rng);
        with_bulk += p.bulk != nullptr;
        ASSERT_EQ(p.computeCrc(), bitwiseCrc(p)) << p.toString();
    }
    // Both shapes (header-only and bulk payload) were exercised.
    EXPECT_GT(with_bulk, 1000);
    EXPECT_LT(with_bulk, 4000);
}

TEST(Crc, GoldenValuesPinTheWireFormat)
{
    // Values recorded from the bit-at-a-time implementation; any change
    // to the field packing or the polynomial breaks them.
    EXPECT_EQ(Packet{}.computeCrc(), 0xa363f1b4u);

    Packet a;
    a.type = PacketType::AtomicReq;
    a.src = 3;
    a.dst = 200;
    a.addr = 0x123456789abcULL;
    a.addr2 = 0xdeadbeefULL;
    a.value = 42;
    a.value2 = 7;
    a.aop = AtomicOp::CompareAndSwap;
    a.origin = 3;
    a.vc = 1;
    a.seq = 17;
    a.ticket = 99;
    a.payloadBytes = 16;
    a.tracked = true;
    EXPECT_EQ(a.computeCrc(), 0x0e861183u);

    Packet b;
    b.type = PacketType::PageData;
    b.src = 513;
    b.dst = 7;
    b.addr = 0x40000;
    b.origin = 513;
    b.seq = 5;
    b.payloadBytes = 64;
    b.bulk = std::make_shared<std::vector<Word>>();
    for (Word w = 1; w <= 8; ++w)
        b.bulk->push_back(w * 0x0101010101010101ULL);
    EXPECT_EQ(b.computeCrc(), 0xd945f2a7u);
}

TEST(Crc, ExcludesHopLocalAndObservabilityFields)
{
    Packet p;
    p.value = 5;
    const std::uint32_t base = p.computeCrc();
    p.lseq = 12;
    p.crc = 0xffffffffu;
    p.traceId = 77;
    p.hopsDone = 3;
    EXPECT_EQ(p.computeCrc(), base);
    p.value ^= 1;
    EXPECT_NE(p.computeCrc(), base);
}

} // namespace
} // namespace tg::net
