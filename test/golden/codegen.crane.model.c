#include <math.h>
/* Generated from CAAM model crane.  One POSIX thread per Thread-SS;
   FIFOs carry the protocols chosen by channel inference. */
#include <pthread.h>
#include <stdio.h>
#include "fifo.h"
#include "sfunctions.h"

#define ROUNDS 5

static fifo_t f1; /* Position -> CPU1/Tsensor/sense (SWFIFO) */
static fifo_t f2; /* CPU1/Tsensor/sense -> CPU1/Tcontrol/sub (SWFIFO) */
static fifo_t f3; /* CPU1/Tcontrol/sat -> CPU1/Tactuator/drive (SWFIFO) */
static fifo_t f4; /* CPU1/Tactuator/drive -> Voltage (SWFIFO) */

static double state_CPU1_Tcontrol_Delay1 = 0;

/* Thread-SS Tsensor on CPU-SS CPU1 */
static void *run_CPU1_Tsensor(void *arg) {
  (void)arg;
  for (int round = 0; round < ROUNDS; ++round) {
    double p_CPU1_Tsensor_sense_1 = fifo_pop(&f1);
    double in_CPU1_Tsensor_sense[1];
    in_CPU1_Tsensor_sense[0] = p_CPU1_Tsensor_sense_1;
    double out_CPU1_Tsensor_sense[1];
    sfun_sense(in_CPU1_Tsensor_sense, 1, out_CPU1_Tsensor_sense, 1);
    double v_CPU1_Tsensor_sense_1 = out_CPU1_Tsensor_sense[0];
    fifo_push(&f2, v_CPU1_Tsensor_sense_1);
  }
  return 0;
}

/* Thread-SS Tcontrol on CPU-SS CPU1 */
static void *run_CPU1_Tcontrol(void *arg) {
  (void)arg;
  for (int round = 0; round < ROUNDS; ++round) {
    double snap_CPU1_Tcontrol_Delay1 = state_CPU1_Tcontrol_Delay1;
    double p_CPU1_Tcontrol_sub_1 = fifo_pop(&f2);
    double v_CPU1_Tcontrol_sub_1 = 0.0 + (p_CPU1_Tcontrol_sub_1) - (snap_CPU1_Tcontrol_Delay1);
    double in_CPU1_Tcontrol_control[1];
    in_CPU1_Tcontrol_control[0] = v_CPU1_Tcontrol_sub_1;
    double out_CPU1_Tcontrol_control[1];
    sfun_control(in_CPU1_Tcontrol_control, 1, out_CPU1_Tcontrol_control, 1);
    double v_CPU1_Tcontrol_control_1 = out_CPU1_Tcontrol_control[0];
    double v_CPU1_Tcontrol_sat_1 = (v_CPU1_Tcontrol_control_1) > 1 ? 1 : ((v_CPU1_Tcontrol_control_1) < -1 ? -1 : (v_CPU1_Tcontrol_control_1));
    fifo_push(&f3, v_CPU1_Tcontrol_sat_1);
    state_CPU1_Tcontrol_Delay1 = v_CPU1_Tcontrol_sat_1;
  }
  return 0;
}

/* Thread-SS Tactuator on CPU-SS CPU1 */
static void *run_CPU1_Tactuator(void *arg) {
  (void)arg;
  for (int round = 0; round < ROUNDS; ++round) {
    double p_CPU1_Tactuator_drive_1 = fifo_pop(&f3);
    double in_CPU1_Tactuator_drive[1];
    in_CPU1_Tactuator_drive[0] = p_CPU1_Tactuator_drive_1;
    double out_CPU1_Tactuator_drive[1];
    sfun_drive(in_CPU1_Tactuator_drive, 1, out_CPU1_Tactuator_drive, 1);
    double v_CPU1_Tactuator_drive_1 = out_CPU1_Tactuator_drive[0];
    fifo_push(&f4, v_CPU1_Tactuator_drive_1);
  }
  return 0;
}

int main(void) {
  swfifo_init(&f1, 64);
  swfifo_init(&f2, 64);
  swfifo_init(&f3, 64);
  swfifo_init(&f4, 64);
  pthread_t workers[3];
  pthread_create(&workers[0], 0, run_CPU1_Tsensor, 0);
  pthread_create(&workers[1], 0, run_CPU1_Tcontrol, 0);
  pthread_create(&workers[2], 0, run_CPU1_Tactuator, 0);
  for (int round = 0; round < ROUNDS; ++round) {
    double v_Position_1 = sin((round + 3.0) / 5.0);
    fifo_push(&f1, v_Position_1);
    printf("Voltage %d %.9f\n", round, fifo_pop(&f4));
  }
  pthread_join(workers[0], 0);
  pthread_join(workers[1], 0);
  pthread_join(workers[2], 0);
  return 0;
}
