// Generated SystemC platform for CAAM model synthetic.
// One SC_MODULE per Thread-SS; sc_fifo channels carry the
// protocols chosen by channel inference (SWFIFO intra-CPU,
// GFIFO inter-CPU over the bus).
#include <systemc.h>
#include <cmath>

static const int ROUNDS = 5;

static double sfun_packA_B(const double *in, int n_in, int port) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  return 0.25 * total + 0.076923076923076927 + 0.1 * port;
}
static double sfun_packA_E(const double *in, int n_in, int port) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  return 0.5 * total + 0.15384615384615385 + 0.1 * port;
}
static double sfun_packB_C(const double *in, int n_in, int port) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  return 0.5 * total + 0.61538461538461542 + 0.1 * port;
}
static double sfun_packB_H(const double *in, int n_in, int port) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  return 0.375 * total + 0.30769230769230771 + 0.1 * port;
}
static double sfun_packC_D(const double *in, int n_in, int port) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  return 0.75 * total + 0.76923076923076927 + 0.1 * port;
}
static double sfun_packC_G(const double *in, int n_in, int port) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  return 0.75 * total + 0.076923076923076927 + 0.1 * port;
}
static double sfun_packD_F(const double *in, int n_in, int port) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  return 0.875 * total + 0.69230769230769229 + 0.1 * port;
}
static double sfun_packE_I(const double *in, int n_in, int port) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  return 0.625 * total + 0.76923076923076927 + 0.1 * port;
}
static double sfun_packF_J(const double *in, int n_in, int port) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  return 0.25 * total + 0.92307692307692313 + 0.1 * port;
}
static double sfun_packG_M(const double *in, int n_in, int port) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  return 0.75 * total + 0.61538461538461542 + 0.1 * port;
}
static double sfun_packH_L(const double *in, int n_in, int port) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  return 0.625 * total + 0.30769230769230771 + 0.1 * port;
}
static double sfun_packI_J(const double *in, int n_in, int port) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  return 0.75 * total + 0.076923076923076927 + 0.1 * port;
}
static double sfun_packL_J(const double *in, int n_in, int port) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  return 0.5 * total + 0.30769230769230771 + 0.1 * port;
}
static double sfun_packM_J(const double *in, int n_in, int port) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  return 0.375 * total + 0.23076923076923078 + 0.1 * port;
}
static double sfun_work(const double *in, int n_in, int port) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  return 0.5 * total + 0 + 0.1 * port;
}

SC_MODULE(Thread_CPU0_A) {
  sc_fifo_in<double> f1;
  sc_fifo_out<double> f2;
  sc_fifo_out<double> f3;

  void behaviour() {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU0_A_work_1 = f1.read();
      double in_CPU0_A_work[1];
      in_CPU0_A_work[0] = p_CPU0_A_work_1;
      double v_CPU0_A_work_1 = sfun_work(in_CPU0_A_work, 1, 0);
      double in_CPU0_A_packA_E[1];
      in_CPU0_A_packA_E[0] = v_CPU0_A_work_1;
      double v_CPU0_A_packA_E_1 = sfun_packA_E(in_CPU0_A_packA_E, 1, 0);
      f3.write(v_CPU0_A_packA_E_1);
      double in_CPU0_A_packA_B[1];
      in_CPU0_A_packA_B[0] = v_CPU0_A_work_1;
      double v_CPU0_A_packA_B_1 = sfun_packA_B(in_CPU0_A_packA_B, 1, 0);
      f2.write(v_CPU0_A_packA_B_1);
    }
  }

  SC_CTOR(Thread_CPU0_A) { SC_THREAD(behaviour); }
};

SC_MODULE(Thread_CPU1_E) {
  sc_fifo_in<double> f3;
  sc_fifo_out<double> f11;

  void behaviour() {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU1_E_work_1 = f3.read();
      double in_CPU1_E_work[1];
      in_CPU1_E_work[0] = p_CPU1_E_work_1;
      double v_CPU1_E_work_1 = sfun_work(in_CPU1_E_work, 1, 0);
      double in_CPU1_E_packE_I[1];
      in_CPU1_E_packE_I[0] = v_CPU1_E_work_1;
      double v_CPU1_E_packE_I_1 = sfun_packE_I(in_CPU1_E_packE_I, 1, 0);
      f11.write(v_CPU1_E_packE_I_1);
    }
  }

  SC_CTOR(Thread_CPU1_E) { SC_THREAD(behaviour); }
};

SC_MODULE(Thread_CPU1_I) {
  sc_fifo_in<double> f11;
  sc_fifo_out<double> f12;

  void behaviour() {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU1_I_work_1 = f11.read();
      double in_CPU1_I_work[1];
      in_CPU1_I_work[0] = p_CPU1_I_work_1;
      double v_CPU1_I_work_1 = sfun_work(in_CPU1_I_work, 1, 0);
      double in_CPU1_I_packI_J[1];
      in_CPU1_I_packI_J[0] = v_CPU1_I_work_1;
      double v_CPU1_I_packI_J_1 = sfun_packI_J(in_CPU1_I_packI_J, 1, 0);
      f12.write(v_CPU1_I_packI_J_1);
    }
  }

  SC_CTOR(Thread_CPU1_I) { SC_THREAD(behaviour); }
};

SC_MODULE(Thread_CPU0_B) {
  sc_fifo_in<double> f2;
  sc_fifo_out<double> f4;
  sc_fifo_out<double> f5;

  void behaviour() {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU0_B_work_1 = f2.read();
      double in_CPU0_B_work[1];
      in_CPU0_B_work[0] = p_CPU0_B_work_1;
      double v_CPU0_B_work_1 = sfun_work(in_CPU0_B_work, 1, 0);
      double in_CPU0_B_packB_H[1];
      in_CPU0_B_packB_H[0] = v_CPU0_B_work_1;
      double v_CPU0_B_packB_H_1 = sfun_packB_H(in_CPU0_B_packB_H, 1, 0);
      f5.write(v_CPU0_B_packB_H_1);
      double in_CPU0_B_packB_C[1];
      in_CPU0_B_packB_C[0] = v_CPU0_B_work_1;
      double v_CPU0_B_packB_C_1 = sfun_packB_C(in_CPU0_B_packB_C, 1, 0);
      f4.write(v_CPU0_B_packB_C_1);
    }
  }

  SC_CTOR(Thread_CPU0_B) { SC_THREAD(behaviour); }
};

SC_MODULE(Thread_CPU3_H) {
  sc_fifo_in<double> f5;
  sc_fifo_out<double> f15;

  void behaviour() {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU3_H_work_1 = f5.read();
      double in_CPU3_H_work[1];
      in_CPU3_H_work[0] = p_CPU3_H_work_1;
      double v_CPU3_H_work_1 = sfun_work(in_CPU3_H_work, 1, 0);
      double in_CPU3_H_packH_L[1];
      in_CPU3_H_packH_L[0] = v_CPU3_H_work_1;
      double v_CPU3_H_packH_L_1 = sfun_packH_L(in_CPU3_H_packH_L, 1, 0);
      f15.write(v_CPU3_H_packH_L_1);
    }
  }

  SC_CTOR(Thread_CPU3_H) { SC_THREAD(behaviour); }
};

SC_MODULE(Thread_CPU3_L) {
  sc_fifo_in<double> f15;
  sc_fifo_out<double> f16;

  void behaviour() {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU3_L_work_1 = f15.read();
      double in_CPU3_L_work[1];
      in_CPU3_L_work[0] = p_CPU3_L_work_1;
      double v_CPU3_L_work_1 = sfun_work(in_CPU3_L_work, 1, 0);
      double in_CPU3_L_packL_J[1];
      in_CPU3_L_packL_J[0] = v_CPU3_L_work_1;
      double v_CPU3_L_packL_J_1 = sfun_packL_J(in_CPU3_L_packL_J, 1, 0);
      f16.write(v_CPU3_L_packL_J_1);
    }
  }

  SC_CTOR(Thread_CPU3_L) { SC_THREAD(behaviour); }
};

SC_MODULE(Thread_CPU0_C) {
  sc_fifo_in<double> f4;
  sc_fifo_out<double> f6;
  sc_fifo_out<double> f7;

  void behaviour() {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU0_C_work_1 = f4.read();
      double in_CPU0_C_work[1];
      in_CPU0_C_work[0] = p_CPU0_C_work_1;
      double v_CPU0_C_work_1 = sfun_work(in_CPU0_C_work, 1, 0);
      double in_CPU0_C_packC_G[1];
      in_CPU0_C_packC_G[0] = v_CPU0_C_work_1;
      double v_CPU0_C_packC_G_1 = sfun_packC_G(in_CPU0_C_packC_G, 1, 0);
      f7.write(v_CPU0_C_packC_G_1);
      double in_CPU0_C_packC_D[1];
      in_CPU0_C_packC_D[0] = v_CPU0_C_work_1;
      double v_CPU0_C_packC_D_1 = sfun_packC_D(in_CPU0_C_packC_D, 1, 0);
      f6.write(v_CPU0_C_packC_D_1);
    }
  }

  SC_CTOR(Thread_CPU0_C) { SC_THREAD(behaviour); }
};

SC_MODULE(Thread_CPU2_G) {
  sc_fifo_in<double> f7;
  sc_fifo_out<double> f13;

  void behaviour() {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU2_G_work_1 = f7.read();
      double in_CPU2_G_work[1];
      in_CPU2_G_work[0] = p_CPU2_G_work_1;
      double v_CPU2_G_work_1 = sfun_work(in_CPU2_G_work, 1, 0);
      double in_CPU2_G_packG_M[1];
      in_CPU2_G_packG_M[0] = v_CPU2_G_work_1;
      double v_CPU2_G_packG_M_1 = sfun_packG_M(in_CPU2_G_packG_M, 1, 0);
      f13.write(v_CPU2_G_packG_M_1);
    }
  }

  SC_CTOR(Thread_CPU2_G) { SC_THREAD(behaviour); }
};

SC_MODULE(Thread_CPU2_M) {
  sc_fifo_in<double> f13;
  sc_fifo_out<double> f14;

  void behaviour() {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU2_M_work_1 = f13.read();
      double in_CPU2_M_work[1];
      in_CPU2_M_work[0] = p_CPU2_M_work_1;
      double v_CPU2_M_work_1 = sfun_work(in_CPU2_M_work, 1, 0);
      double in_CPU2_M_packM_J[1];
      in_CPU2_M_packM_J[0] = v_CPU2_M_work_1;
      double v_CPU2_M_packM_J_1 = sfun_packM_J(in_CPU2_M_packM_J, 1, 0);
      f14.write(v_CPU2_M_packM_J_1);
    }
  }

  SC_CTOR(Thread_CPU2_M) { SC_THREAD(behaviour); }
};

SC_MODULE(Thread_CPU0_D) {
  sc_fifo_in<double> f6;
  sc_fifo_out<double> f8;

  void behaviour() {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU0_D_work_1 = f6.read();
      double in_CPU0_D_work[1];
      in_CPU0_D_work[0] = p_CPU0_D_work_1;
      double v_CPU0_D_work_1 = sfun_work(in_CPU0_D_work, 1, 0);
      double in_CPU0_D_packD_F[1];
      in_CPU0_D_packD_F[0] = v_CPU0_D_work_1;
      double v_CPU0_D_packD_F_1 = sfun_packD_F(in_CPU0_D_packD_F, 1, 0);
      f8.write(v_CPU0_D_packD_F_1);
    }
  }

  SC_CTOR(Thread_CPU0_D) { SC_THREAD(behaviour); }
};

SC_MODULE(Thread_CPU0_F) {
  sc_fifo_in<double> f8;
  sc_fifo_out<double> f9;

  void behaviour() {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU0_F_work_1 = f8.read();
      double in_CPU0_F_work[1];
      in_CPU0_F_work[0] = p_CPU0_F_work_1;
      double v_CPU0_F_work_1 = sfun_work(in_CPU0_F_work, 1, 0);
      double in_CPU0_F_packF_J[1];
      in_CPU0_F_packF_J[0] = v_CPU0_F_work_1;
      double v_CPU0_F_packF_J_1 = sfun_packF_J(in_CPU0_F_packF_J, 1, 0);
      f9.write(v_CPU0_F_packF_J_1);
    }
  }

  SC_CTOR(Thread_CPU0_F) { SC_THREAD(behaviour); }
};

SC_MODULE(Thread_CPU0_J) {
  sc_fifo_in<double> f9;
  sc_fifo_out<double> f10;
  sc_fifo_in<double> f12;
  sc_fifo_in<double> f14;
  sc_fifo_in<double> f16;

  void behaviour() {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU0_J_work_1 = f9.read();
      double p_CPU0_J_work_2 = f12.read();
      double p_CPU0_J_work_4 = f14.read();
      double p_CPU0_J_work_3 = f16.read();
      double in_CPU0_J_work[4];
      in_CPU0_J_work[0] = p_CPU0_J_work_1;
      in_CPU0_J_work[1] = p_CPU0_J_work_2;
      in_CPU0_J_work[2] = p_CPU0_J_work_3;
      in_CPU0_J_work[3] = p_CPU0_J_work_4;
      double v_CPU0_J_work_1 = sfun_work(in_CPU0_J_work, 4, 0);
      f10.write(v_CPU0_J_work_1);
    }
  }

  SC_CTOR(Thread_CPU0_J) { SC_THREAD(behaviour); }
};

SC_MODULE(Environment) {
  sc_fifo_out<double> f1;
  sc_fifo_in<double> f10;
  void behaviour() {
    for (int round = 0; round < ROUNDS; ++round) {
      double v_Input_1 = std::sin((round + 6.0) / 5.0);
      f1.write(v_Input_1);
      std::printf("Result %d %.9f\n", round, f10.read());
    }
    sc_stop();
  }

  SC_CTOR(Environment) { SC_THREAD(behaviour); }
};

int sc_main(int, char **) {
  sc_fifo<double> f1(64); // SWFIFO: Input -> CPU0/A/work
  sc_fifo<double> f2(64); // SWFIFO: CPU0/A/packA_B -> CPU0/B/work
  sc_fifo<double> f3(64); // GFIFO: CPU0/A/packA_E -> CPU1/E/work
  sc_fifo<double> f4(64); // SWFIFO: CPU0/B/packB_C -> CPU0/C/work
  sc_fifo<double> f5(64); // GFIFO: CPU0/B/packB_H -> CPU3/H/work
  sc_fifo<double> f6(64); // SWFIFO: CPU0/C/packC_D -> CPU0/D/work
  sc_fifo<double> f7(64); // GFIFO: CPU0/C/packC_G -> CPU2/G/work
  sc_fifo<double> f8(64); // SWFIFO: CPU0/D/packD_F -> CPU0/F/work
  sc_fifo<double> f9(64); // SWFIFO: CPU0/F/packF_J -> CPU0/J/work
  sc_fifo<double> f10(64); // SWFIFO: CPU0/J/work -> Result
  sc_fifo<double> f11(64); // SWFIFO: CPU1/E/packE_I -> CPU1/I/work
  sc_fifo<double> f12(64); // GFIFO: CPU1/I/packI_J -> CPU0/J/work
  sc_fifo<double> f13(64); // SWFIFO: CPU2/G/packG_M -> CPU2/M/work
  sc_fifo<double> f14(64); // GFIFO: CPU2/M/packM_J -> CPU0/J/work
  sc_fifo<double> f15(64); // SWFIFO: CPU3/H/packH_L -> CPU3/L/work
  sc_fifo<double> f16(64); // GFIFO: CPU3/L/packL_J -> CPU0/J/work
  Thread_CPU0_A i_CPU0_A("i_CPU0_A");
  i_CPU0_A.f1(f1);
  i_CPU0_A.f2(f2);
  i_CPU0_A.f3(f3);
  Thread_CPU1_E i_CPU1_E("i_CPU1_E");
  i_CPU1_E.f3(f3);
  i_CPU1_E.f11(f11);
  Thread_CPU1_I i_CPU1_I("i_CPU1_I");
  i_CPU1_I.f11(f11);
  i_CPU1_I.f12(f12);
  Thread_CPU0_B i_CPU0_B("i_CPU0_B");
  i_CPU0_B.f2(f2);
  i_CPU0_B.f4(f4);
  i_CPU0_B.f5(f5);
  Thread_CPU3_H i_CPU3_H("i_CPU3_H");
  i_CPU3_H.f5(f5);
  i_CPU3_H.f15(f15);
  Thread_CPU3_L i_CPU3_L("i_CPU3_L");
  i_CPU3_L.f15(f15);
  i_CPU3_L.f16(f16);
  Thread_CPU0_C i_CPU0_C("i_CPU0_C");
  i_CPU0_C.f4(f4);
  i_CPU0_C.f6(f6);
  i_CPU0_C.f7(f7);
  Thread_CPU2_G i_CPU2_G("i_CPU2_G");
  i_CPU2_G.f7(f7);
  i_CPU2_G.f13(f13);
  Thread_CPU2_M i_CPU2_M("i_CPU2_M");
  i_CPU2_M.f13(f13);
  i_CPU2_M.f14(f14);
  Thread_CPU0_D i_CPU0_D("i_CPU0_D");
  i_CPU0_D.f6(f6);
  i_CPU0_D.f8(f8);
  Thread_CPU0_F i_CPU0_F("i_CPU0_F");
  i_CPU0_F.f8(f8);
  i_CPU0_F.f9(f9);
  Thread_CPU0_J i_CPU0_J("i_CPU0_J");
  i_CPU0_J.f9(f9);
  i_CPU0_J.f10(f10);
  i_CPU0_J.f12(f12);
  i_CPU0_J.f14(f14);
  i_CPU0_J.f16(f16);
  Environment env("env");
  env.f1(f1);
  env.f10(f10);
  sc_start();
  return 0;
}
