// CPU-time stack sampler, loaded with LD_PRELOAD into one process.
//
//   cc -O2 -shared -fPIC -o sampler.so scripts/sample_profile/sampler.c -lrt
//   LD_PRELOAD=$PWD/sampler.so ./prog args...   # writes sample_profile.<pid>.out
//   python3 scripts/sample_profile/symbolize.py sample_profile.<pid>.out
//
// A timer_create(CLOCK_PROCESS_CPUTIME_ID) timer raises SIGPROF every 4 ms
// of process CPU time; the handler writes the interrupted PC and its
// callers (backtrace) as one "S pc pc ..." line. At exit the process's
// memory map follows as "M <maps line>" lines for the symboliser. The
// constructor drops LD_PRELOAD from the environment, so only this process
// is sampled, not the programs it starts.
#define _GNU_SOURCE
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kDepth = 64, kPeriodNs = 4000000 };

static int out_fd = -1;
static timer_t timer;

static char* put_hex(char* p, unsigned long v) {
  char tmp[16];
  int n = 0;
  do tmp[n++] = "0123456789abcdef"[v & 15]; while (v >>= 4);
  *p++ = ' ';
  while (n > 0) *p++ = tmp[--n];
  return p;
}

static void on_sigprof(int sig, siginfo_t* info, void* ctx) {
  (void)sig, (void)info;
  const ucontext_t* uc = ctx;
#if defined(__x86_64__)
  unsigned long pc = (unsigned long)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  unsigned long pc = (unsigned long)uc->uc_mcontext.pc;
#else
#error "sampler.c: add this architecture's PC register"
#endif
  void* frames[kDepth];
  const int n = backtrace(frames, kDepth);
  // Skip the handler and the signal trampoline; if the unwinder lost the
  // interrupted frame, the sample keeps only its PC.
  int first = 0;
  while (first < n && (unsigned long)frames[first] != pc) ++first;
  char line[16 + kDepth * 18];
  char* p = line;
  *p++ = 'S';
  p = put_hex(p, pc);
  for (int i = first + 1; i < n; ++i) p = put_hex(p, (unsigned long)frames[i]);
  *p++ = '\n';
  if (write(out_fd, line, (size_t)(p - line)) < 0) return;
}

__attribute__((constructor)) static void sampler_start(void) {
  unsetenv("LD_PRELOAD");
  char path[64];
  snprintf(path, sizeof path, "sample_profile.%d.out", (int)getpid());
  out_fd = open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (out_fd < 0) return;
  void* warm[1];
  backtrace(warm, 1);  // loads the unwinder outside the signal handler
  struct sigaction sa = {0};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct sigevent ev = {0};
  ev.sigev_notify = SIGEV_SIGNAL;
  ev.sigev_signo = SIGPROF;
  struct itimerspec period = {{0, kPeriodNs}, {0, kPeriodNs}};
  if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &ev, &timer) == 0) {
    timer_settime(timer, 0, &period, NULL);
  }
}

__attribute__((destructor)) static void sampler_stop(void) {
  if (out_fd < 0) return;
  timer_delete(timer);
  FILE* maps = fopen("/proc/self/maps", "r");
  char buf[4096];
  while (maps != NULL && fgets(buf, sizeof buf, maps) != NULL) {
    dprintf(out_fd, "M %s", buf);
  }
  if (maps != NULL) fclose(maps);
  close(out_fd);
  out_fd = -1;
}
