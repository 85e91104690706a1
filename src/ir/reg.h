/**
 * @file
 * Register model for the EPIC IR.
 *
 * Three architectural register classes mirror IA-64's integer side:
 * general (Gr, 64-bit integer with a NaT bit), predicate (Pr, 1-bit) and
 * branch (Br). The ISA has no floating-point ops, so there is no FR
 * file. A small set of low-numbered registers have architected
 * meanings; virtual registers used before allocation are numbered from
 * kFirstVirtual upward so they can never collide with architected names.
 */
#ifndef EPIC_IR_REG_H
#define EPIC_IR_REG_H

#include <cstdint>
#include <functional>
#include <string>

namespace epic {

/** Architectural register classes. */
enum class RegClass : uint8_t {
    Gr, ///< general 64-bit integer registers (with NaT bit)
    Pr, ///< 1-bit predicate registers
    Br, ///< branch registers
};

/// Number of register classes (RegClass values are 0..kNumRegClasses-1).
inline constexpr int kNumRegClasses = 3;

/** Printable name of a register class ("gr", "pr", "br"). */
const char *regClassName(RegClass cls);

/** A register reference: class + number. */
struct Reg
{
    RegClass cls = RegClass::Gr;
    int32_t id = -1;

    constexpr Reg() = default;
    constexpr Reg(RegClass c, int32_t i) : cls(c), id(i) {}

    constexpr bool valid() const { return id >= 0; }
    constexpr bool operator==(const Reg &o) const
    {
        return cls == o.cls && id == o.id;
    }
    constexpr bool operator!=(const Reg &o) const { return !(*this == o); }
    constexpr bool operator<(const Reg &o) const
    {
        return cls != o.cls ? cls < o.cls : id < o.id;
    }

    /** Textual form, e.g. "gr42" or "pr0". */
    std::string str() const;
};

/// Architected always-zero general register (reads as 0, writes ignored).
inline constexpr Reg kGrZero{RegClass::Gr, 0};
/// Architected always-true predicate (IA-64 p0).
inline constexpr Reg kPrTrue{RegClass::Pr, 0};
/// Stack pointer by convention.
inline constexpr Reg kGrSp{RegClass::Gr, 12};

/// Number of physical registers per class (IA-64: 128 GR, 64 PR, 8 BR).
int physRegCount(RegClass cls);

/// First id handed out for virtual registers (above all architected names).
inline constexpr int32_t kFirstVirtual = 128;

/** True if the register is a virtual (pre-allocation) name. */
inline constexpr bool
isVirtual(Reg r)
{
    return r.id >= kFirstVirtual;
}

} // namespace epic

template <>
struct std::hash<epic::Reg>
{
    size_t
    operator()(const epic::Reg &r) const noexcept
    {
        return std::hash<uint64_t>()(
            (static_cast<uint64_t>(r.cls) << 32) |
            static_cast<uint32_t>(r.id));
    }
};

#endif // EPIC_IR_REG_H
