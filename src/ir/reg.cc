#include "ir/reg.h"

namespace epic {

const char *
regClassName(RegClass cls)
{
    switch (cls) {
      case RegClass::Gr: return "gr";
      case RegClass::Pr: return "pr";
      case RegClass::Br: return "br";
    }
    return "?";
}

std::string
Reg::str() const
{
    if (!valid())
        return "<invalid-reg>";
    return std::string(regClassName(cls)) + std::to_string(id);
}

int
physRegCount(RegClass cls)
{
    switch (cls) {
      case RegClass::Gr: return 128;
      case RegClass::Pr: return 64;
      case RegClass::Br: return 8;
    }
    return 0;
}

} // namespace epic
