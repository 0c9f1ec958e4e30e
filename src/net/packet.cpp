/**
 * @file
 * Packet helpers: wire sizing, CRC and pretty-printing.
 */

#include "net/packet.hpp"

#include <array>
#include <cstdio>

namespace tg::net {

const char *
packetTypeName(PacketType t)
{
    switch (t) {
      case PacketType::WriteReq: return "WriteReq";
      case PacketType::WriteAck: return "WriteAck";
      case PacketType::ReadReq: return "ReadReq";
      case PacketType::ReadReply: return "ReadReply";
      case PacketType::CopyReq: return "CopyReq";
      case PacketType::CopyData: return "CopyData";
      case PacketType::AtomicReq: return "AtomicReq";
      case PacketType::AtomicReply: return "AtomicReply";
      case PacketType::EagerWrite: return "EagerWrite";
      case PacketType::Update: return "Update";
      case PacketType::UpdateAck: return "UpdateAck";
      case PacketType::WriteOwner: return "WriteOwner";
      case PacketType::RingUpdate: return "RingUpdate";
      case PacketType::InvReq: return "InvReq";
      case PacketType::InvAck: return "InvAck";
      case PacketType::PageReq: return "PageReq";
      case PacketType::PageData: return "PageData";
      case PacketType::Message: return "Message";
      case PacketType::CollUp: return "CollUp";
      case PacketType::CollDown: return "CollDown";
    }
    return "?";
}

namespace {

/** Slicing-by-8 tables for the reflected CRC-32C polynomial: kCrcTables[0]
 *  is the classic byte table, kCrcTables[k][b] advances kCrcTables[0][b]
 *  through k further zero bytes. */
constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrcTables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t b = 0; b < 256; ++b) {
        std::uint32_t c = b;
        for (int k = 0; k < 8; ++k)
            c = (c >> 1) ^ ((c & 1) ? 0x82f63b78u : 0u);
        t[0][b] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::size_t b = 0; b < 256; ++b)
            t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xff];
    return t;
}();

} // namespace

std::uint32_t
crc32cWord(std::uint32_t crc, std::uint64_t word)
{
    // The word's eight little-endian bytes, first byte deepest in the
    // table stack: one lookup per byte instead of one step per bit.
    const std::uint64_t x = word ^ crc;
    return kCrcTables[7][x & 0xff] ^ kCrcTables[6][(x >> 8) & 0xff] ^
           kCrcTables[5][(x >> 16) & 0xff] ^ kCrcTables[4][(x >> 24) & 0xff] ^
           kCrcTables[3][(x >> 32) & 0xff] ^ kCrcTables[2][(x >> 40) & 0xff] ^
           kCrcTables[1][(x >> 48) & 0xff] ^ kCrcTables[0][x >> 56];
}

std::uint32_t
Packet::computeCrc() const
{
    std::uint32_t c = ~0u;
    c = crc32cWord(c, static_cast<std::uint64_t>(type) |
                          (std::uint64_t(src) << 8) |
                          (std::uint64_t(dst) << 24) |
                          (std::uint64_t(origin) << 40) |
                          (std::uint64_t(vc) << 56));
    c = crc32cWord(c, addr);
    c = crc32cWord(c, addr2);
    c = crc32cWord(c, value);
    c = crc32cWord(c, value2);
    c = crc32cWord(c, static_cast<std::uint64_t>(aop) |
                          (std::uint64_t(payloadBytes) << 8) |
                          (std::uint64_t(tracked) << 40));
    c = crc32cWord(c, seq);
    c = crc32cWord(c, ticket);
    if (bulk) {
        for (const Word w : *bulk)
            c = crc32cWord(c, w);
    }
    return ~c;
}

std::string
Packet::toString() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s %u->%u addr=%llx val=%llu origin=%u seq=%llu",
                  packetTypeName(type), unsigned(src), unsigned(dst),
                  (unsigned long long)addr, (unsigned long long)value,
                  unsigned(origin), (unsigned long long)seq);
    return buf;
}

} // namespace tg::net
