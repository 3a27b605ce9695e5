/* Hardware CRC32C for Repro_util.Crc32c.

   On x86-64 CPUs with SSE4.2 the `crc32` instruction folds eight bytes
   per step with the Castagnoli polynomial. The function carries its own
   target attribute, so the file builds without any global -msse4.2 flag
   and the binary still runs on CPUs without the instruction: OCaml asks
   [repro_crc32c_hw_available] once and never calls the hardware fold
   when it answers false. Bounds are checked on the OCaml side. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define REPRO_CRC32C_X86 1
#endif

#ifdef REPRO_CRC32C_X86
__attribute__((target("sse4.2")))
static uint32_t crc32c_fold(uint32_t crc, const unsigned char *p, size_t len)
{
  uint64_t c = crc;
  while (len >= 8) {
    uint64_t w;
    memcpy(&w, p, 8);
    c = _mm_crc32_u64(c, w);
    p += 8;
    len -= 8;
  }
  uint32_t c32 = (uint32_t)c;
  while (len > 0) {
    c32 = _mm_crc32_u8(c32, *p++);
    len--;
  }
  return c32;
}
#endif

value repro_crc32c_hw_available(value unit)
{
  (void)unit;
#ifdef REPRO_CRC32C_X86
  return Val_bool(__builtin_cpu_supports("sse4.2"));
#else
  return Val_false;
#endif
}

intnat repro_crc32c_hw_update(intnat crc, value s, intnat pos, intnat len)
{
#ifdef REPRO_CRC32C_X86
  return crc32c_fold((uint32_t)crc,
                     (const unsigned char *)String_val(s) + pos, (size_t)len);
#else
  /* Unreachable: OCaml selects the table kernel on these targets. */
  (void)s;
  (void)pos;
  (void)len;
  return crc;
#endif
}

value repro_crc32c_hw_update_byte(value crc, value s, value pos, value len)
{
  return Val_long(
      repro_crc32c_hw_update(Long_val(crc), s, Long_val(pos), Long_val(len)));
}
