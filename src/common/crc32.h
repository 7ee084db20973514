// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// §2's network model permits message loss but not *undetectable*
// corruption; the wire codec appends this checksum so a real transport
// turns corruption into detection-and-drop, which the fair-loss machinery
// (retransmission) already handles. The same checksum guards journal
// records, snapshots and stored blocks.
//
// Two variants compute the identical function: a portable slicing-by-8
// loop, and on x86 CPUs with PCLMULQDQ a carry-less-multiply folding kernel
// (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ", Intel 2009) that folds 64 bytes per step and hands short
// inputs and the sub-16-byte tail to slicing-by-8. The best variant the
// running CPU supports is selected once at startup, the way gf::kernels()
// dispatches the GF(2^8) kernels; the output is byte-identical either way,
// so no on-disk or on-wire format depends on the choice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fabec {

/// CRC-32 of `data[0, size)`, through the dispatched variant.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

/// The classic byte-at-a-time implementation over the same table — kept as
/// the differential-test oracle for crc32(); not for production use.
std::uint32_t crc32_reference(const std::uint8_t* data, std::size_t size);

/// One CRC-32 implementation; `fn` accepts any alignment and any length,
/// including zero (with a null pointer).
struct Crc32Kernel {
  /// Variant name: "slice8" or "pclmul".
  const char* name;
  std::uint32_t (*fn)(const std::uint8_t* data, std::size_t size);
};

/// Every variant compiled into this binary that the running CPU can execute,
/// slice8 first; crc32() uses the last. Differential tests iterate this.
const std::vector<const Crc32Kernel*>& crc32_compiled_kernels();

}  // namespace fabec
