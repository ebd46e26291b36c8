// Hardware-POPCNT variants of the word-parallel BNN kernels.  This TU is
// compiled with -mpopcnt (see src/bnn/CMakeLists.txt) — the only place
// in the default build where the POPCNT instruction may be emitted.  The
// dispatcher binds these pointers only after the runtime probe reports
// POPCNT, so the binary itself stays runnable on baseline x86-64.
#include "bnn/kernels.hpp"

#if defined(__POPCNT__)

#include "bnn/kernels_impl.hpp"

namespace mpcnn::bnn::detail {

const BnnPopFns kBnnPopPopcnt = {&xor_pop_impl, &xnor_conv_impl,
                                 &xnor_acc_impl};

}  // namespace mpcnn::bnn::detail

#else  // non-x86 build or missing per-file flag: never bound.

namespace mpcnn::bnn::detail {
const BnnPopFns kBnnPopPopcnt = {nullptr, nullptr, nullptr};
}  // namespace mpcnn::bnn::detail

#endif
