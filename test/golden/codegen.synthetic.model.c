#include <math.h>
/* Generated from CAAM model synthetic.  One POSIX thread per Thread-SS;
   FIFOs carry the protocols chosen by channel inference. */
#include <pthread.h>
#include <stdio.h>
#include "fifo.h"
#include "sfunctions.h"

#define ROUNDS 5

static fifo_t f1; /* Input -> CPU0/A/work (SWFIFO) */
static fifo_t f2; /* CPU0/A/packA_B -> CPU0/B/work (SWFIFO) */
static fifo_t f3; /* CPU0/A/packA_E -> CPU1/E/work (GFIFO) */
static fifo_t f4; /* CPU0/B/packB_C -> CPU0/C/work (SWFIFO) */
static fifo_t f5; /* CPU0/B/packB_H -> CPU3/H/work (GFIFO) */
static fifo_t f6; /* CPU0/C/packC_D -> CPU0/D/work (SWFIFO) */
static fifo_t f7; /* CPU0/C/packC_G -> CPU2/G/work (GFIFO) */
static fifo_t f8; /* CPU0/D/packD_F -> CPU0/F/work (SWFIFO) */
static fifo_t f9; /* CPU0/F/packF_J -> CPU0/J/work (SWFIFO) */
static fifo_t f10; /* CPU0/J/work -> Result (SWFIFO) */
static fifo_t f11; /* CPU1/E/packE_I -> CPU1/I/work (SWFIFO) */
static fifo_t f12; /* CPU1/I/packI_J -> CPU0/J/work (GFIFO) */
static fifo_t f13; /* CPU2/G/packG_M -> CPU2/M/work (SWFIFO) */
static fifo_t f14; /* CPU2/M/packM_J -> CPU0/J/work (GFIFO) */
static fifo_t f15; /* CPU3/H/packH_L -> CPU3/L/work (SWFIFO) */
static fifo_t f16; /* CPU3/L/packL_J -> CPU0/J/work (GFIFO) */


/* Thread-SS A on CPU-SS CPU0 */
static void *run_CPU0_A(void *arg) {
  (void)arg;
  for (int round = 0; round < ROUNDS; ++round) {
    double p_CPU0_A_work_1 = fifo_pop(&f1);
    double in_CPU0_A_work[1];
    in_CPU0_A_work[0] = p_CPU0_A_work_1;
    double out_CPU0_A_work[1];
    sfun_work(in_CPU0_A_work, 1, out_CPU0_A_work, 1);
    double v_CPU0_A_work_1 = out_CPU0_A_work[0];
    double in_CPU0_A_packA_E[1];
    in_CPU0_A_packA_E[0] = v_CPU0_A_work_1;
    double out_CPU0_A_packA_E[1];
    sfun_packA_E(in_CPU0_A_packA_E, 1, out_CPU0_A_packA_E, 1);
    double v_CPU0_A_packA_E_1 = out_CPU0_A_packA_E[0];
    fifo_push(&f3, v_CPU0_A_packA_E_1);
    double in_CPU0_A_packA_B[1];
    in_CPU0_A_packA_B[0] = v_CPU0_A_work_1;
    double out_CPU0_A_packA_B[1];
    sfun_packA_B(in_CPU0_A_packA_B, 1, out_CPU0_A_packA_B, 1);
    double v_CPU0_A_packA_B_1 = out_CPU0_A_packA_B[0];
    fifo_push(&f2, v_CPU0_A_packA_B_1);
  }
  return 0;
}

/* Thread-SS E on CPU-SS CPU1 */
static void *run_CPU1_E(void *arg) {
  (void)arg;
  for (int round = 0; round < ROUNDS; ++round) {
    double p_CPU1_E_work_1 = fifo_pop(&f3);
    double in_CPU1_E_work[1];
    in_CPU1_E_work[0] = p_CPU1_E_work_1;
    double out_CPU1_E_work[1];
    sfun_work(in_CPU1_E_work, 1, out_CPU1_E_work, 1);
    double v_CPU1_E_work_1 = out_CPU1_E_work[0];
    double in_CPU1_E_packE_I[1];
    in_CPU1_E_packE_I[0] = v_CPU1_E_work_1;
    double out_CPU1_E_packE_I[1];
    sfun_packE_I(in_CPU1_E_packE_I, 1, out_CPU1_E_packE_I, 1);
    double v_CPU1_E_packE_I_1 = out_CPU1_E_packE_I[0];
    fifo_push(&f11, v_CPU1_E_packE_I_1);
  }
  return 0;
}

/* Thread-SS I on CPU-SS CPU1 */
static void *run_CPU1_I(void *arg) {
  (void)arg;
  for (int round = 0; round < ROUNDS; ++round) {
    double p_CPU1_I_work_1 = fifo_pop(&f11);
    double in_CPU1_I_work[1];
    in_CPU1_I_work[0] = p_CPU1_I_work_1;
    double out_CPU1_I_work[1];
    sfun_work(in_CPU1_I_work, 1, out_CPU1_I_work, 1);
    double v_CPU1_I_work_1 = out_CPU1_I_work[0];
    double in_CPU1_I_packI_J[1];
    in_CPU1_I_packI_J[0] = v_CPU1_I_work_1;
    double out_CPU1_I_packI_J[1];
    sfun_packI_J(in_CPU1_I_packI_J, 1, out_CPU1_I_packI_J, 1);
    double v_CPU1_I_packI_J_1 = out_CPU1_I_packI_J[0];
    fifo_push(&f12, v_CPU1_I_packI_J_1);
  }
  return 0;
}

/* Thread-SS B on CPU-SS CPU0 */
static void *run_CPU0_B(void *arg) {
  (void)arg;
  for (int round = 0; round < ROUNDS; ++round) {
    double p_CPU0_B_work_1 = fifo_pop(&f2);
    double in_CPU0_B_work[1];
    in_CPU0_B_work[0] = p_CPU0_B_work_1;
    double out_CPU0_B_work[1];
    sfun_work(in_CPU0_B_work, 1, out_CPU0_B_work, 1);
    double v_CPU0_B_work_1 = out_CPU0_B_work[0];
    double in_CPU0_B_packB_H[1];
    in_CPU0_B_packB_H[0] = v_CPU0_B_work_1;
    double out_CPU0_B_packB_H[1];
    sfun_packB_H(in_CPU0_B_packB_H, 1, out_CPU0_B_packB_H, 1);
    double v_CPU0_B_packB_H_1 = out_CPU0_B_packB_H[0];
    fifo_push(&f5, v_CPU0_B_packB_H_1);
    double in_CPU0_B_packB_C[1];
    in_CPU0_B_packB_C[0] = v_CPU0_B_work_1;
    double out_CPU0_B_packB_C[1];
    sfun_packB_C(in_CPU0_B_packB_C, 1, out_CPU0_B_packB_C, 1);
    double v_CPU0_B_packB_C_1 = out_CPU0_B_packB_C[0];
    fifo_push(&f4, v_CPU0_B_packB_C_1);
  }
  return 0;
}

/* Thread-SS H on CPU-SS CPU3 */
static void *run_CPU3_H(void *arg) {
  (void)arg;
  for (int round = 0; round < ROUNDS; ++round) {
    double p_CPU3_H_work_1 = fifo_pop(&f5);
    double in_CPU3_H_work[1];
    in_CPU3_H_work[0] = p_CPU3_H_work_1;
    double out_CPU3_H_work[1];
    sfun_work(in_CPU3_H_work, 1, out_CPU3_H_work, 1);
    double v_CPU3_H_work_1 = out_CPU3_H_work[0];
    double in_CPU3_H_packH_L[1];
    in_CPU3_H_packH_L[0] = v_CPU3_H_work_1;
    double out_CPU3_H_packH_L[1];
    sfun_packH_L(in_CPU3_H_packH_L, 1, out_CPU3_H_packH_L, 1);
    double v_CPU3_H_packH_L_1 = out_CPU3_H_packH_L[0];
    fifo_push(&f15, v_CPU3_H_packH_L_1);
  }
  return 0;
}

/* Thread-SS L on CPU-SS CPU3 */
static void *run_CPU3_L(void *arg) {
  (void)arg;
  for (int round = 0; round < ROUNDS; ++round) {
    double p_CPU3_L_work_1 = fifo_pop(&f15);
    double in_CPU3_L_work[1];
    in_CPU3_L_work[0] = p_CPU3_L_work_1;
    double out_CPU3_L_work[1];
    sfun_work(in_CPU3_L_work, 1, out_CPU3_L_work, 1);
    double v_CPU3_L_work_1 = out_CPU3_L_work[0];
    double in_CPU3_L_packL_J[1];
    in_CPU3_L_packL_J[0] = v_CPU3_L_work_1;
    double out_CPU3_L_packL_J[1];
    sfun_packL_J(in_CPU3_L_packL_J, 1, out_CPU3_L_packL_J, 1);
    double v_CPU3_L_packL_J_1 = out_CPU3_L_packL_J[0];
    fifo_push(&f16, v_CPU3_L_packL_J_1);
  }
  return 0;
}

/* Thread-SS C on CPU-SS CPU0 */
static void *run_CPU0_C(void *arg) {
  (void)arg;
  for (int round = 0; round < ROUNDS; ++round) {
    double p_CPU0_C_work_1 = fifo_pop(&f4);
    double in_CPU0_C_work[1];
    in_CPU0_C_work[0] = p_CPU0_C_work_1;
    double out_CPU0_C_work[1];
    sfun_work(in_CPU0_C_work, 1, out_CPU0_C_work, 1);
    double v_CPU0_C_work_1 = out_CPU0_C_work[0];
    double in_CPU0_C_packC_G[1];
    in_CPU0_C_packC_G[0] = v_CPU0_C_work_1;
    double out_CPU0_C_packC_G[1];
    sfun_packC_G(in_CPU0_C_packC_G, 1, out_CPU0_C_packC_G, 1);
    double v_CPU0_C_packC_G_1 = out_CPU0_C_packC_G[0];
    fifo_push(&f7, v_CPU0_C_packC_G_1);
    double in_CPU0_C_packC_D[1];
    in_CPU0_C_packC_D[0] = v_CPU0_C_work_1;
    double out_CPU0_C_packC_D[1];
    sfun_packC_D(in_CPU0_C_packC_D, 1, out_CPU0_C_packC_D, 1);
    double v_CPU0_C_packC_D_1 = out_CPU0_C_packC_D[0];
    fifo_push(&f6, v_CPU0_C_packC_D_1);
  }
  return 0;
}

/* Thread-SS G on CPU-SS CPU2 */
static void *run_CPU2_G(void *arg) {
  (void)arg;
  for (int round = 0; round < ROUNDS; ++round) {
    double p_CPU2_G_work_1 = fifo_pop(&f7);
    double in_CPU2_G_work[1];
    in_CPU2_G_work[0] = p_CPU2_G_work_1;
    double out_CPU2_G_work[1];
    sfun_work(in_CPU2_G_work, 1, out_CPU2_G_work, 1);
    double v_CPU2_G_work_1 = out_CPU2_G_work[0];
    double in_CPU2_G_packG_M[1];
    in_CPU2_G_packG_M[0] = v_CPU2_G_work_1;
    double out_CPU2_G_packG_M[1];
    sfun_packG_M(in_CPU2_G_packG_M, 1, out_CPU2_G_packG_M, 1);
    double v_CPU2_G_packG_M_1 = out_CPU2_G_packG_M[0];
    fifo_push(&f13, v_CPU2_G_packG_M_1);
  }
  return 0;
}

/* Thread-SS M on CPU-SS CPU2 */
static void *run_CPU2_M(void *arg) {
  (void)arg;
  for (int round = 0; round < ROUNDS; ++round) {
    double p_CPU2_M_work_1 = fifo_pop(&f13);
    double in_CPU2_M_work[1];
    in_CPU2_M_work[0] = p_CPU2_M_work_1;
    double out_CPU2_M_work[1];
    sfun_work(in_CPU2_M_work, 1, out_CPU2_M_work, 1);
    double v_CPU2_M_work_1 = out_CPU2_M_work[0];
    double in_CPU2_M_packM_J[1];
    in_CPU2_M_packM_J[0] = v_CPU2_M_work_1;
    double out_CPU2_M_packM_J[1];
    sfun_packM_J(in_CPU2_M_packM_J, 1, out_CPU2_M_packM_J, 1);
    double v_CPU2_M_packM_J_1 = out_CPU2_M_packM_J[0];
    fifo_push(&f14, v_CPU2_M_packM_J_1);
  }
  return 0;
}

/* Thread-SS D on CPU-SS CPU0 */
static void *run_CPU0_D(void *arg) {
  (void)arg;
  for (int round = 0; round < ROUNDS; ++round) {
    double p_CPU0_D_work_1 = fifo_pop(&f6);
    double in_CPU0_D_work[1];
    in_CPU0_D_work[0] = p_CPU0_D_work_1;
    double out_CPU0_D_work[1];
    sfun_work(in_CPU0_D_work, 1, out_CPU0_D_work, 1);
    double v_CPU0_D_work_1 = out_CPU0_D_work[0];
    double in_CPU0_D_packD_F[1];
    in_CPU0_D_packD_F[0] = v_CPU0_D_work_1;
    double out_CPU0_D_packD_F[1];
    sfun_packD_F(in_CPU0_D_packD_F, 1, out_CPU0_D_packD_F, 1);
    double v_CPU0_D_packD_F_1 = out_CPU0_D_packD_F[0];
    fifo_push(&f8, v_CPU0_D_packD_F_1);
  }
  return 0;
}

/* Thread-SS F on CPU-SS CPU0 */
static void *run_CPU0_F(void *arg) {
  (void)arg;
  for (int round = 0; round < ROUNDS; ++round) {
    double p_CPU0_F_work_1 = fifo_pop(&f8);
    double in_CPU0_F_work[1];
    in_CPU0_F_work[0] = p_CPU0_F_work_1;
    double out_CPU0_F_work[1];
    sfun_work(in_CPU0_F_work, 1, out_CPU0_F_work, 1);
    double v_CPU0_F_work_1 = out_CPU0_F_work[0];
    double in_CPU0_F_packF_J[1];
    in_CPU0_F_packF_J[0] = v_CPU0_F_work_1;
    double out_CPU0_F_packF_J[1];
    sfun_packF_J(in_CPU0_F_packF_J, 1, out_CPU0_F_packF_J, 1);
    double v_CPU0_F_packF_J_1 = out_CPU0_F_packF_J[0];
    fifo_push(&f9, v_CPU0_F_packF_J_1);
  }
  return 0;
}

/* Thread-SS J on CPU-SS CPU0 */
static void *run_CPU0_J(void *arg) {
  (void)arg;
  for (int round = 0; round < ROUNDS; ++round) {
    double p_CPU0_J_work_1 = fifo_pop(&f9);
    double p_CPU0_J_work_2 = fifo_pop(&f12);
    double p_CPU0_J_work_4 = fifo_pop(&f14);
    double p_CPU0_J_work_3 = fifo_pop(&f16);
    double in_CPU0_J_work[4];
    in_CPU0_J_work[0] = p_CPU0_J_work_1;
    in_CPU0_J_work[1] = p_CPU0_J_work_2;
    in_CPU0_J_work[2] = p_CPU0_J_work_3;
    in_CPU0_J_work[3] = p_CPU0_J_work_4;
    double out_CPU0_J_work[1];
    sfun_work(in_CPU0_J_work, 4, out_CPU0_J_work, 1);
    double v_CPU0_J_work_1 = out_CPU0_J_work[0];
    fifo_push(&f10, v_CPU0_J_work_1);
  }
  return 0;
}

int main(void) {
  swfifo_init(&f1, 64);
  swfifo_init(&f2, 64);
  gfifo_init(&f3, 64);
  swfifo_init(&f4, 64);
  gfifo_init(&f5, 64);
  swfifo_init(&f6, 64);
  gfifo_init(&f7, 64);
  swfifo_init(&f8, 64);
  swfifo_init(&f9, 64);
  swfifo_init(&f10, 64);
  swfifo_init(&f11, 64);
  gfifo_init(&f12, 64);
  swfifo_init(&f13, 64);
  gfifo_init(&f14, 64);
  swfifo_init(&f15, 64);
  gfifo_init(&f16, 64);
  pthread_t workers[12];
  pthread_create(&workers[0], 0, run_CPU0_A, 0);
  pthread_create(&workers[1], 0, run_CPU1_E, 0);
  pthread_create(&workers[2], 0, run_CPU1_I, 0);
  pthread_create(&workers[3], 0, run_CPU0_B, 0);
  pthread_create(&workers[4], 0, run_CPU3_H, 0);
  pthread_create(&workers[5], 0, run_CPU3_L, 0);
  pthread_create(&workers[6], 0, run_CPU0_C, 0);
  pthread_create(&workers[7], 0, run_CPU2_G, 0);
  pthread_create(&workers[8], 0, run_CPU2_M, 0);
  pthread_create(&workers[9], 0, run_CPU0_D, 0);
  pthread_create(&workers[10], 0, run_CPU0_F, 0);
  pthread_create(&workers[11], 0, run_CPU0_J, 0);
  for (int round = 0; round < ROUNDS; ++round) {
    double v_Input_1 = sin((round + 6.0) / 5.0);
    fifo_push(&f1, v_Input_1);
    printf("Result %d %.9f\n", round, fifo_pop(&f10));
  }
  pthread_join(workers[0], 0);
  pthread_join(workers[1], 0);
  pthread_join(workers[2], 0);
  pthread_join(workers[3], 0);
  pthread_join(workers[4], 0);
  pthread_join(workers[5], 0);
  pthread_join(workers[6], 0);
  pthread_join(workers[7], 0);
  pthread_join(workers[8], 0);
  pthread_join(workers[9], 0);
  pthread_join(workers[10], 0);
  pthread_join(workers[11], 0);
  return 0;
}
