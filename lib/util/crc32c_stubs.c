/* Hardware CRC32C for Repro_util.Crc32c.

   On x86-64 CPUs with SSE4.2 the `crc32` instruction folds eight bytes
   per step with the Castagnoli polynomial. The function carries its own
   target attribute, so the file builds without any global -msse4.2 flag
   and the binary still runs on CPUs without the instruction: OCaml asks
   [repro_crc32c_hw_available] once and never calls the hardware fold
   when it answers false. Bounds are checked on the OCaml side.

   One `crc32` chain is bound by the instruction's latency (three
   cycles) while the CPU can start one per cycle. So the fold runs three
   independent chains over three adjacent 256-byte blocks and combines
   them: the CRC is linear, so the CRC of block A followed by block B is
   the CRC of A advanced over 256 zero bytes, xor the CRC of B from a
   zero state. Advancing over 256 zero bytes is a fixed linear map on
   the 32-bit state; four 256-entry tables apply it a byte of state at a
   time. The tables are built once from the GF(2) "zeros operator", as
   in Mark Adler's crc32c.c. Inputs shorter than three blocks, and the
   tail after the last triple, take the single chain. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define REPRO_CRC32C_X86 1
#endif

#ifdef REPRO_CRC32C_X86

#define POLY 0x82f63b78u /* reflected CRC32C polynomial */
#define BLOCK 256        /* bytes per stream; a power of two */

/* shift_tables[k][n]: byte n of the state, at bit offset 8k, advanced
   over BLOCK zero bytes. */
static uint32_t shift_tables[4][256];

/* Multiply the 32x32 GF(2) matrix [mat] (one column per word) by [vec]. */
static uint32_t gf2_matrix_times(const uint32_t *mat, uint32_t vec)
{
  uint32_t sum = 0;
  while (vec) {
    if (vec & 1)
      sum ^= *mat;
    vec >>= 1;
    mat++;
  }
  return sum;
}

static void gf2_matrix_square(uint32_t *square, const uint32_t *mat)
{
  for (int n = 0; n < 32; n++)
    square[n] = gf2_matrix_times(mat, mat[n]);
}

/* The operator that advances a CRC state over [len] zero bytes; [len]
   must be a power of two. Squaring the one-zero-bit operator doubles
   the distance each time. */
static void zeros_op(uint32_t *even, size_t len)
{
  uint32_t odd[32];
  uint32_t row = 1;
  odd[0] = POLY;
  for (int n = 1; n < 32; n++) {
    odd[n] = row;
    row <<= 1;
  }
  gf2_matrix_square(even, odd); /* two zero bits */
  gf2_matrix_square(odd, even); /* four zero bits */
  do {
    gf2_matrix_square(even, odd); /* first pass: one zero byte */
    len >>= 1;
    if (len == 0)
      return;
    gf2_matrix_square(odd, even);
    len >>= 1;
  } while (len);
  memcpy(even, odd, sizeof odd);
}

static void build_shift_tables(void)
{
  uint32_t op[32];
  zeros_op(op, BLOCK);
  for (uint32_t n = 0; n < 256; n++) {
    shift_tables[0][n] = gf2_matrix_times(op, n);
    shift_tables[1][n] = gf2_matrix_times(op, n << 8);
    shift_tables[2][n] = gf2_matrix_times(op, n << 16);
    shift_tables[3][n] = gf2_matrix_times(op, n << 24);
  }
}

static inline uint32_t shift_block(uint32_t crc)
{
  return shift_tables[0][crc & 0xff] ^ shift_tables[1][(crc >> 8) & 0xff]
         ^ shift_tables[2][(crc >> 16) & 0xff] ^ shift_tables[3][crc >> 24];
}

__attribute__((target("sse4.2")))
static uint32_t crc32c_fold(uint32_t crc, const unsigned char *p, size_t len)
{
  uint64_t c = crc;
  while (len >= 3 * BLOCK) {
    uint64_t c1 = 0, c2 = 0;
    for (size_t i = 0; i < BLOCK; i += 8) {
      uint64_t w0, w1, w2;
      memcpy(&w0, p + i, 8);
      memcpy(&w1, p + BLOCK + i, 8);
      memcpy(&w2, p + 2 * BLOCK + i, 8);
      c = _mm_crc32_u64(c, w0);
      c1 = _mm_crc32_u64(c1, w1);
      c2 = _mm_crc32_u64(c2, w2);
    }
    c = shift_block((uint32_t)c) ^ (uint32_t)c1;
    c = shift_block((uint32_t)c) ^ (uint32_t)c2;
    p += 3 * BLOCK;
    len -= 3 * BLOCK;
  }
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

/* Called once, when the OCaml module is initialised; builds the shift
   tables before any fold can use them. */
value repro_crc32c_hw_available(value unit)
{
  (void)unit;
#ifdef REPRO_CRC32C_X86
  if (!__builtin_cpu_supports("sse4.2"))
    return Val_false;
  build_shift_tables();
  return Val_true;
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
