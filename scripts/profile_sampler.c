/* Task-clock IP sampler, the measuring half of scripts/profile.sh.

     profile_sampler PERIOD_NS OUT CMD [ARG...]

   Runs CMD and samples the instruction pointer of its main thread once
   every PERIOD_NS nanoseconds of that thread's own CPU time, through
   perf_event_open's software task clock. Only user-space IPs of one's
   own child are sampled, which perf_event_paranoid <= 2 allows; no perf
   binary, no root and no system-wide tracing are involved.

   OUT gets one line per distinct sampled location:
     COUNT PATH VADDR   in an executable mapping of PATH; VADDR is the
                        ELF virtual address (16 hex digits, as nm
                        prints them), or "-" when PATH is not an ELF
                        file it can read
     COUNT ? IP         outside every recorded mapping
   then "# samples N lost M". Exits with CMD's status. */
#define _GNU_SOURCE
#include <elf.h>
#include <linux/perf_event.h>
#include <poll.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#define DATA_PAGES 256 /* ring buffer pages, a power of two */
#define MAX_MAPS 512
#define MAX_LOADS 16

struct map {
  uint64_t start, end, pgoff;
  char *path;
  int nloads; /* -1: not parsed yet */
  Elf64_Phdr loads[MAX_LOADS];
};

static struct map maps[MAX_MAPS];
static int nmaps;

/* sampled IP -> count, open addressing, kept under half full */
static uint64_t *keys, *counts;
static size_t cap = 1 << 16, used;
static uint64_t nsamples, nlost;

static void die(const char *what) {
  perror(what);
  exit(2);
}

static size_t slot_of(uint64_t ip) {
  size_t i = (ip * 0x9E3779B97F4A7C15ull) >> 20 & (cap - 1);
  while (keys[i] != 0 && keys[i] != ip) i = (i + 1) & (cap - 1);
  return i;
}

static void add_ip(uint64_t ip) {
  size_t i = slot_of(ip);
  if (keys[i] == 0) {
    if ((used + 1) * 2 > cap) {
      uint64_t *ok = keys, *oc = counts;
      size_t ocap = cap;
      cap *= 2;
      keys = calloc(cap, sizeof *keys);
      counts = calloc(cap, sizeof *counts);
      if (!keys || !counts) die("calloc");
      for (size_t j = 0; j < ocap; j++)
        if (ok[j]) {
          size_t k = slot_of(ok[j]);
          keys[k] = ok[j];
          counts[k] = oc[j];
        }
      free(ok);
      free(oc);
      i = slot_of(ip);
    }
    keys[i] = ip;
    used++;
  }
  counts[i]++;
}

static void add_map(uint64_t start, uint64_t len, uint64_t pgoff,
                    const char *path) {
  if (nmaps == MAX_MAPS) return;
  struct map *m = &maps[nmaps++];
  m->start = start;
  m->end = start + len;
  m->pgoff = pgoff;
  m->path = strdup(path);
  m->nloads = -1;
}

/* the PT_LOAD headers of [m]'s file; none when it is not a readable
   64-bit ELF file */
static void load_phdrs(struct map *m) {
  m->nloads = 0;
  FILE *f = fopen(m->path, "rb");
  if (!f) return;
  Elf64_Ehdr eh;
  if (fread(&eh, sizeof eh, 1, f) == 1 &&
      memcmp(eh.e_ident, ELFMAG, SELFMAG) == 0 &&
      eh.e_ident[EI_CLASS] == ELFCLASS64) {
    for (int i = 0; i < eh.e_phnum && m->nloads < MAX_LOADS; i++) {
      Elf64_Phdr ph;
      if (fseek(f, (long)(eh.e_phoff + (uint64_t)i * eh.e_phentsize),
                SEEK_SET) != 0 ||
          fread(&ph, sizeof ph, 1, f) != 1)
        break;
      if (ph.p_type == PT_LOAD) m->loads[m->nloads++] = ph;
    }
  }
  fclose(f);
}

/* the newest mapping holding [ip] (a later mapping shadows an older one) */
static struct map *map_of(uint64_t ip) {
  for (int i = nmaps - 1; i >= 0; i--)
    if (maps[i].start <= ip && ip < maps[i].end) return &maps[i];
  return NULL;
}

static struct perf_event_mmap_page *meta;
static char *ring;
static uint64_t ring_size;

static void ring_copy(uint64_t pos, void *dst, size_t n) {
  uint64_t off = pos & (ring_size - 1);
  size_t first = n < ring_size - off ? n : ring_size - off;
  memcpy(dst, ring + off, first);
  memcpy((char *)dst + first, ring, n - first);
}

/* consume every complete record in the ring */
static void drain(void) {
  static char rec[1 << 16];
  uint64_t head = __atomic_load_n(&meta->data_head, __ATOMIC_ACQUIRE);
  uint64_t tail = meta->data_tail;
  while (tail < head) {
    struct perf_event_header h;
    ring_copy(tail, &h, sizeof h);
    if (h.size < sizeof h) break;
    ring_copy(tail, rec, h.size);
    const char *body = rec + sizeof h;
    if (h.type == PERF_RECORD_SAMPLE) {
      uint64_t ip;
      memcpy(&ip, body, sizeof ip);
      add_ip(ip);
      nsamples++;
    } else if (h.type == PERF_RECORD_MMAP) {
      /* u32 pid, tid; u64 addr, len, pgoff; char filename[] */
      uint64_t addr, len, pgoff;
      memcpy(&addr, body + 8, 8);
      memcpy(&len, body + 16, 8);
      memcpy(&pgoff, body + 24, 8);
      add_map(addr, len, pgoff, body + 32);
    } else if (h.type == PERF_RECORD_LOST) {
      /* u64 id, lost */
      uint64_t lost;
      memcpy(&lost, body + 8, 8);
      nlost += lost;
    }
    tail += h.size;
  }
  __atomic_store_n(&meta->data_tail, tail, __ATOMIC_RELEASE);
}

int main(int argc, char **argv) {
  if (argc < 4) {
    fprintf(stderr, "usage: %s PERIOD_NS OUT CMD [ARG...]\n", argv[0]);
    return 2;
  }
  uint64_t period = strtoull(argv[1], NULL, 10);
  if (period == 0) {
    fprintf(stderr, "profile_sampler: PERIOD_NS must be positive\n");
    return 2;
  }
  keys = calloc(cap, sizeof *keys);
  counts = calloc(cap, sizeof *counts);
  if (!keys || !counts) die("calloc");

  /* the child waits on [go] until its event is open, so no IP of the
     command escapes; the event arms itself at exec */
  int go[2];
  if (pipe(go) != 0) die("pipe");
  pid_t pid = fork();
  if (pid < 0) die("fork");
  if (pid == 0) {
    char c;
    close(go[1]);
    if (read(go[0], &c, 1) != 1) _exit(127);
    close(go[0]);
    execvp(argv[3], argv + 3);
    perror(argv[3]);
    _exit(127);
  }
  close(go[0]);

  struct perf_event_attr attr;
  memset(&attr, 0, sizeof attr);
  attr.size = sizeof attr;
  attr.type = PERF_TYPE_SOFTWARE;
  attr.config = PERF_COUNT_SW_TASK_CLOCK;
  attr.sample_period = period;
  attr.sample_type = PERF_SAMPLE_IP;
  attr.disabled = 1;
  attr.enable_on_exec = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.mmap = 1;
  attr.watermark = 1;
  long page = sysconf(_SC_PAGESIZE);
  ring_size = (uint64_t)DATA_PAGES * page;
  attr.wakeup_watermark = ring_size / 4;
  int fd = syscall(SYS_perf_event_open, &attr, pid, -1, -1, 0);
  if (fd < 0) {
    perror("perf_event_open");
    kill(pid, SIGKILL);
    waitpid(pid, NULL, 0);
    return 2;
  }
  meta = mmap(NULL, (DATA_PAGES + 1) * page, PROT_READ | PROT_WRITE,
              MAP_SHARED, fd, 0);
  if (meta == MAP_FAILED) die("mmap");
  ring = (char *)meta + page;
  if (write(go[1], "x", 1) != 1) die("write");
  close(go[1]);

  int status = 0;
  for (;;) {
    struct pollfd p = {.fd = fd, .events = POLLIN};
    poll(&p, 1, 100);
    drain();
    if (waitpid(pid, &status, WNOHANG) == pid) break;
  }
  drain();

  FILE *out = fopen(argv[2], "w");
  if (!out) die(argv[2]);
  for (size_t i = 0; i < cap; i++) {
    if (!keys[i]) continue;
    uint64_t ip = keys[i];
    struct map *m = map_of(ip);
    if (!m) {
      fprintf(out, "%llu ? %llx\n", (unsigned long long)counts[i],
              (unsigned long long)ip);
      continue;
    }
    if (m->nloads < 0) load_phdrs(m);
    uint64_t off = ip - m->start + m->pgoff;
    int found = 0;
    for (int k = 0; k < m->nloads; k++) {
      Elf64_Phdr *ph = &m->loads[k];
      if (ph->p_offset <= off && off < ph->p_offset + ph->p_filesz) {
        fprintf(out, "%llu %s %016llx\n", (unsigned long long)counts[i],
                m->path,
                (unsigned long long)(off - ph->p_offset + ph->p_vaddr));
        found = 1;
        break;
      }
    }
    if (!found)
      fprintf(out, "%llu %s -\n", (unsigned long long)counts[i], m->path);
  }
  fprintf(out, "# samples %llu lost %llu\n", (unsigned long long)nsamples,
          (unsigned long long)nlost);
  fclose(out);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + WTERMSIG(status);
}
