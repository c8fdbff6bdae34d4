// Generated SystemC platform for CAAM model crane.
// One SC_MODULE per Thread-SS; sc_fifo channels carry the
// protocols chosen by channel inference (SWFIFO intra-CPU,
// GFIFO inter-CPU over the bus).
#include <systemc.h>
#include <cmath>

static const int ROUNDS = 5;

static double sfun_control(const double *in, int n_in, int port) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  return 0.375 * total + 0.076923076923076927 + 0.1 * port;
}
static double sfun_drive(const double *in, int n_in, int port) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  return 0.625 * total + 0.69230769230769229 + 0.1 * port;
}
static double sfun_sense(const double *in, int n_in, int port) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  return 0.25 * total + 0.46153846153846156 + 0.1 * port;
}

SC_MODULE(Thread_CPU1_Tsensor) {
  sc_fifo_in<double> f1;
  sc_fifo_out<double> f2;

  void behaviour() {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU1_Tsensor_sense_1 = f1.read();
      double in_CPU1_Tsensor_sense[1];
      in_CPU1_Tsensor_sense[0] = p_CPU1_Tsensor_sense_1;
      double v_CPU1_Tsensor_sense_1 = sfun_sense(in_CPU1_Tsensor_sense, 1, 0);
      f2.write(v_CPU1_Tsensor_sense_1);
    }
  }

  SC_CTOR(Thread_CPU1_Tsensor) { SC_THREAD(behaviour); }
};

SC_MODULE(Thread_CPU1_Tcontrol) {
  sc_fifo_in<double> f2;
  sc_fifo_out<double> f3;
  double state_CPU1_Tcontrol_Delay1 = 0;

  void behaviour() {
    for (int round = 0; round < ROUNDS; ++round) {
      double snap_CPU1_Tcontrol_Delay1 = state_CPU1_Tcontrol_Delay1;
      double p_CPU1_Tcontrol_sub_1 = f2.read();
      double v_CPU1_Tcontrol_sub_1 = 0.0 + (p_CPU1_Tcontrol_sub_1) - (snap_CPU1_Tcontrol_Delay1);
      double in_CPU1_Tcontrol_control[1];
      in_CPU1_Tcontrol_control[0] = v_CPU1_Tcontrol_sub_1;
      double v_CPU1_Tcontrol_control_1 = sfun_control(in_CPU1_Tcontrol_control, 1, 0);
      double v_CPU1_Tcontrol_sat_1 = (v_CPU1_Tcontrol_control_1) > 1 ? 1 : ((v_CPU1_Tcontrol_control_1) < -1 ? -1 : (v_CPU1_Tcontrol_control_1));
      f3.write(v_CPU1_Tcontrol_sat_1);
      state_CPU1_Tcontrol_Delay1 = v_CPU1_Tcontrol_sat_1;
    }
  }

  SC_CTOR(Thread_CPU1_Tcontrol) { SC_THREAD(behaviour); }
};

SC_MODULE(Thread_CPU1_Tactuator) {
  sc_fifo_in<double> f3;
  sc_fifo_out<double> f4;

  void behaviour() {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU1_Tactuator_drive_1 = f3.read();
      double in_CPU1_Tactuator_drive[1];
      in_CPU1_Tactuator_drive[0] = p_CPU1_Tactuator_drive_1;
      double v_CPU1_Tactuator_drive_1 = sfun_drive(in_CPU1_Tactuator_drive, 1, 0);
      f4.write(v_CPU1_Tactuator_drive_1);
    }
  }

  SC_CTOR(Thread_CPU1_Tactuator) { SC_THREAD(behaviour); }
};

SC_MODULE(Environment) {
  sc_fifo_out<double> f1;
  sc_fifo_in<double> f4;
  void behaviour() {
    for (int round = 0; round < ROUNDS; ++round) {
      double v_Position_1 = std::sin((round + 3.0) / 5.0);
      f1.write(v_Position_1);
      std::printf("Voltage %d %.9f\n", round, f4.read());
    }
    sc_stop();
  }

  SC_CTOR(Environment) { SC_THREAD(behaviour); }
};

int sc_main(int, char **) {
  sc_fifo<double> f1(64); // SWFIFO: Position -> CPU1/Tsensor/sense
  sc_fifo<double> f2(64); // SWFIFO: CPU1/Tsensor/sense -> CPU1/Tcontrol/sub
  sc_fifo<double> f3(64); // SWFIFO: CPU1/Tcontrol/sat -> CPU1/Tactuator/drive
  sc_fifo<double> f4(64); // SWFIFO: CPU1/Tactuator/drive -> Voltage
  Thread_CPU1_Tsensor i_CPU1_Tsensor("i_CPU1_Tsensor");
  i_CPU1_Tsensor.f1(f1);
  i_CPU1_Tsensor.f2(f2);
  Thread_CPU1_Tcontrol i_CPU1_Tcontrol("i_CPU1_Tcontrol");
  i_CPU1_Tcontrol.f2(f2);
  i_CPU1_Tcontrol.f3(f3);
  Thread_CPU1_Tactuator i_CPU1_Tactuator("i_CPU1_Tactuator");
  i_CPU1_Tactuator.f3(f3);
  i_CPU1_Tactuator.f4(f4);
  Environment env("env");
  env.f1(f1);
  env.f4(f4);
  sc_start();
  return 0;
}
