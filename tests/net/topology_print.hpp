/**
 * @file
 * gtest printer for TopologySpec, shared by the suites parameterised on it.
 *
 * gtest lists a parameter that has no printer as its raw bytes, and for a
 * TopologySpec those include the padding after the 4-byte `kind`, which
 * holds whatever the parameter's copies left there; the listed test names
 * then change from run to run. This printer keeps gtest's byte format but
 * zeroes that padding. Every test file that prints a TopologySpec through
 * gtest includes it, so all of them instantiate the same printer.
 */

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <ostream>

#include "net/topology.hpp"

namespace tg::net {

inline void
PrintTo(const TopologySpec &spec, std::ostream *os)
{
    unsigned char bytes[sizeof spec];
    std::memcpy(bytes, &spec, sizeof spec);
    std::fill(bytes + sizeof spec.kind, bytes + offsetof(TopologySpec, nodes),
              0);
    ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

} // namespace tg::net
