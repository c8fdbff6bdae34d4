let header =
  {|#ifndef UMLFRONT_FIFO_H
#define UMLFRONT_FIFO_H

#include <pthread.h>

#define FIFO_MAX_CAPACITY 64

typedef struct {
  double buffer[FIFO_MAX_CAPACITY];
  int head;
  int count;
  int capacity; /* <= FIFO_MAX_CAPACITY; the channel's Depth */
  const char *protocol; /* "SWFIFO" or "GFIFO" */
  pthread_mutex_t lock;
  pthread_cond_t not_empty;
  pthread_cond_t not_full;
} fifo_t;

/* Intra-CPU software FIFO. */
void swfifo_init(fifo_t *f, int capacity);
/* Inter-CPU (bus) FIFO; same semantics, kept distinct to mirror the
   CAAM protocol annotation. */
void gfifo_init(fifo_t *f, int capacity);

void fifo_push(fifo_t *f, double value); /* blocks when full */
double fifo_pop(fifo_t *f);              /* blocks when empty */
int fifo_size(fifo_t *f);

#endif /* UMLFRONT_FIFO_H */
|}

let source =
  {|#include "fifo.h"

static void fifo_init_common(fifo_t *f, const char *protocol, int capacity) {
  f->head = 0;
  f->count = 0;
  f->capacity =
      capacity > 0 && capacity <= FIFO_MAX_CAPACITY ? capacity : FIFO_MAX_CAPACITY;
  f->protocol = protocol;
  pthread_mutex_init(&f->lock, 0);
  pthread_cond_init(&f->not_empty, 0);
  pthread_cond_init(&f->not_full, 0);
}

void swfifo_init(fifo_t *f, int capacity) { fifo_init_common(f, "SWFIFO", capacity); }
void gfifo_init(fifo_t *f, int capacity) { fifo_init_common(f, "GFIFO", capacity); }

void fifo_push(fifo_t *f, double value) {
  pthread_mutex_lock(&f->lock);
  while (f->count == f->capacity)
    pthread_cond_wait(&f->not_full, &f->lock);
  f->buffer[(f->head + f->count) % FIFO_MAX_CAPACITY] = value;
  f->count++;
  pthread_cond_signal(&f->not_empty);
  pthread_mutex_unlock(&f->lock);
}

double fifo_pop(fifo_t *f) {
  pthread_mutex_lock(&f->lock);
  while (f->count == 0)
    pthread_cond_wait(&f->not_empty, &f->lock);
  double value = f->buffer[f->head];
  f->head = (f->head + 1) % FIFO_MAX_CAPACITY;
  f->count--;
  pthread_cond_signal(&f->not_full);
  pthread_mutex_unlock(&f->lock);
  return value;
}

int fifo_size(fifo_t *f) {
  pthread_mutex_lock(&f->lock);
  int n = f->count;
  pthread_mutex_unlock(&f->lock);
  return n;
}
|}
