/* alloc_census.c - counts malloc and free calls, printed at exit; can also
 * sample where the malloc calls come from.
 *
 *   cc -O2 -shared -fPIC -o alloc_census.so tools/alloc_census.c -ldl
 *   LD_PRELOAD=./alloc_census.so <program> [args]
 *
 * Prints "alloc_census: malloc=N free=N small=N" on stderr, where small
 * counts the malloc calls asking for 63 bytes or less. calloc, realloc
 * and aligned allocations are not counted.
 *
 * Sampling (opt-in): with ALLOC_CENSUS_SAMPLE=N set, every Nth malloc call
 * appends one line to the file ALLOC_CENSUS_OUT (default
 * alloc_census.<pid>.txt): "S" followed by the call's return addresses,
 * innermost first, each written as <module>+0x<offset from the module's
 * load address>. tools/alloc_sites.py symbolizes the lines and groups
 * them by calling function. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <fcntl.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void __libc_free(void *);

static atomic_ulong Mallocs, Frees, Small;

enum { MaxFrames = 24 };
static unsigned long SampleEvery; /* 0: sampling off */
static int SampleFd = -1;
/* Set while this thread records a sample: backtrace() and dladdr() may
 * allocate, and those calls must not sample themselves. */
static _Thread_local int InSample;

static void sample(void) {
  void *Frames[MaxFrames];
  char Line[MaxFrames * 160 + 2];
  size_t Len = 0;
  InSample = 1;
  int N = backtrace(Frames, MaxFrames);
  Line[Len++] = 'S';
  for (int I = 1; I < N; ++I) { /* frame 0 is malloc itself */
    Dl_info Info;
    const char *Mod = "?";
    unsigned long Off = (unsigned long)Frames[I];
    if (dladdr(Frames[I], &Info) && Info.dli_fname) {
      Mod = Info.dli_fname;
      Off -= (unsigned long)Info.dli_fbase;
    }
    /* Return addresses point past the call; step back into it. */
    int W = snprintf(Line + Len, sizeof(Line) - Len, " %s+0x%lx", Mod,
                     Off ? Off - 1 : 0);
    if (W < 0 || (size_t)W >= sizeof(Line) - Len - 1)
      break;
    Len += (size_t)W;
  }
  Line[Len++] = '\n';
  ssize_t Ignored = write(SampleFd, Line, Len);
  (void)Ignored;
  InSample = 0;
}

void *malloc(size_t N) {
  unsigned long Count =
      atomic_fetch_add_explicit(&Mallocs, 1, memory_order_relaxed) + 1;
  if (N <= 63)
    atomic_fetch_add_explicit(&Small, 1, memory_order_relaxed);
  if (SampleEvery && Count % SampleEvery == 0 && !InSample)
    sample();
  return __libc_malloc(N);
}

void free(void *P) {
  if (P)
    atomic_fetch_add_explicit(&Frees, 1, memory_order_relaxed);
  __libc_free(P);
}

__attribute__((constructor)) static void start(void) {
  const char *Every = getenv("ALLOC_CENSUS_SAMPLE");
  if (!Every || atol(Every) <= 0)
    return;
  char Path[64];
  const char *Out = getenv("ALLOC_CENSUS_OUT");
  if (!Out) {
    snprintf(Path, sizeof(Path), "alloc_census.%d.txt", (int)getpid());
    Out = Path;
  }
  SampleFd = open(Out, O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (SampleFd < 0) {
    fprintf(stderr, "alloc_census: cannot open %s; sampling off\n", Out);
    return;
  }
  void *Warm[1];
  InSample = 1;
  backtrace(Warm, 1); /* loads the unwinder before the first sample */
  InSample = 0;
  SampleEvery = (unsigned long)atol(Every);
}

__attribute__((destructor)) static void report(void) {
  fprintf(stderr, "alloc_census: malloc=%lu free=%lu small=%lu\n",
          atomic_load(&Mallocs), atomic_load(&Frees), atomic_load(&Small));
}
