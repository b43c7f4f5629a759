/* alloc_census.c - counts malloc and free calls, printed at exit.
 *
 *   cc -O2 -shared -fPIC -o alloc_census.so tools/alloc_census.c
 *   LD_PRELOAD=./alloc_census.so <program> [args]
 *
 * Prints "alloc_census: malloc=N free=N small=N" on stderr, where small
 * counts the malloc calls asking for 63 bytes or less. calloc, realloc
 * and aligned allocations are not counted. */
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>

extern void *__libc_malloc(size_t);
extern void __libc_free(void *);

static atomic_ulong Mallocs, Frees, Small;

void *malloc(size_t N) {
  atomic_fetch_add_explicit(&Mallocs, 1, memory_order_relaxed);
  if (N <= 63)
    atomic_fetch_add_explicit(&Small, 1, memory_order_relaxed);
  return __libc_malloc(N);
}

void free(void *P) {
  if (P)
    atomic_fetch_add_explicit(&Frees, 1, memory_order_relaxed);
  __libc_free(P);
}

__attribute__((destructor)) static void report(void) {
  fprintf(stderr, "alloc_census: malloc=%lu free=%lu small=%lu\n",
          atomic_load(&Mallocs), atomic_load(&Frees), atomic_load(&Small));
}
