/* Generated from CAAM model synthetic. */
import java.util.concurrent.ArrayBlockingQueue;

public final class GeneratedModel {
  static final int ROUNDS = 5;
  static final ArrayBlockingQueue<Double> f1 = new ArrayBlockingQueue<>(64); // SWFIFO: Input -> CPU0/A/work
  static final ArrayBlockingQueue<Double> f2 = new ArrayBlockingQueue<>(64); // SWFIFO: CPU0/A/packA_B -> CPU0/B/work
  static final ArrayBlockingQueue<Double> f3 = new ArrayBlockingQueue<>(64); // GFIFO: CPU0/A/packA_E -> CPU1/E/work
  static final ArrayBlockingQueue<Double> f4 = new ArrayBlockingQueue<>(64); // SWFIFO: CPU0/B/packB_C -> CPU0/C/work
  static final ArrayBlockingQueue<Double> f5 = new ArrayBlockingQueue<>(64); // GFIFO: CPU0/B/packB_H -> CPU3/H/work
  static final ArrayBlockingQueue<Double> f6 = new ArrayBlockingQueue<>(64); // SWFIFO: CPU0/C/packC_D -> CPU0/D/work
  static final ArrayBlockingQueue<Double> f7 = new ArrayBlockingQueue<>(64); // GFIFO: CPU0/C/packC_G -> CPU2/G/work
  static final ArrayBlockingQueue<Double> f8 = new ArrayBlockingQueue<>(64); // SWFIFO: CPU0/D/packD_F -> CPU0/F/work
  static final ArrayBlockingQueue<Double> f9 = new ArrayBlockingQueue<>(64); // SWFIFO: CPU0/F/packF_J -> CPU0/J/work
  static final ArrayBlockingQueue<Double> f10 = new ArrayBlockingQueue<>(64); // SWFIFO: CPU0/J/work -> Result
  static final ArrayBlockingQueue<Double> f11 = new ArrayBlockingQueue<>(64); // SWFIFO: CPU1/E/packE_I -> CPU1/I/work
  static final ArrayBlockingQueue<Double> f12 = new ArrayBlockingQueue<>(64); // GFIFO: CPU1/I/packI_J -> CPU0/J/work
  static final ArrayBlockingQueue<Double> f13 = new ArrayBlockingQueue<>(64); // SWFIFO: CPU2/G/packG_M -> CPU2/M/work
  static final ArrayBlockingQueue<Double> f14 = new ArrayBlockingQueue<>(64); // GFIFO: CPU2/M/packM_J -> CPU0/J/work
  static final ArrayBlockingQueue<Double> f15 = new ArrayBlockingQueue<>(64); // SWFIFO: CPU3/H/packH_L -> CPU3/L/work
  static final ArrayBlockingQueue<Double> f16 = new ArrayBlockingQueue<>(64); // GFIFO: CPU3/L/packL_J -> CPU0/J/work

  static double sfun(String name, double a, double b, double[] in) {
    double total = 0.0;
    for (double x : in) total += x;
    return a * total + b;
  }

  static void run_CPU0_A() throws InterruptedException {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU0_A_work_1 = f1.take();
      double v_CPU0_A_work_1 = sfun("work", 0.5, 0, new double[]{p_CPU0_A_work_1}) + 0.1 * 0;
      double v_CPU0_A_packA_E_1 = sfun("packA_E", 0.5, 0.15384615384615385, new double[]{v_CPU0_A_work_1}) + 0.1 * 0;
      f3.put(v_CPU0_A_packA_E_1);
      double v_CPU0_A_packA_B_1 = sfun("packA_B", 0.25, 0.076923076923076927, new double[]{v_CPU0_A_work_1}) + 0.1 * 0;
      f2.put(v_CPU0_A_packA_B_1);
    }
  }

  static void run_CPU1_E() throws InterruptedException {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU1_E_work_1 = f3.take();
      double v_CPU1_E_work_1 = sfun("work", 0.5, 0, new double[]{p_CPU1_E_work_1}) + 0.1 * 0;
      double v_CPU1_E_packE_I_1 = sfun("packE_I", 0.625, 0.76923076923076927, new double[]{v_CPU1_E_work_1}) + 0.1 * 0;
      f11.put(v_CPU1_E_packE_I_1);
    }
  }

  static void run_CPU1_I() throws InterruptedException {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU1_I_work_1 = f11.take();
      double v_CPU1_I_work_1 = sfun("work", 0.5, 0, new double[]{p_CPU1_I_work_1}) + 0.1 * 0;
      double v_CPU1_I_packI_J_1 = sfun("packI_J", 0.75, 0.076923076923076927, new double[]{v_CPU1_I_work_1}) + 0.1 * 0;
      f12.put(v_CPU1_I_packI_J_1);
    }
  }

  static void run_CPU0_B() throws InterruptedException {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU0_B_work_1 = f2.take();
      double v_CPU0_B_work_1 = sfun("work", 0.5, 0, new double[]{p_CPU0_B_work_1}) + 0.1 * 0;
      double v_CPU0_B_packB_H_1 = sfun("packB_H", 0.375, 0.30769230769230771, new double[]{v_CPU0_B_work_1}) + 0.1 * 0;
      f5.put(v_CPU0_B_packB_H_1);
      double v_CPU0_B_packB_C_1 = sfun("packB_C", 0.5, 0.61538461538461542, new double[]{v_CPU0_B_work_1}) + 0.1 * 0;
      f4.put(v_CPU0_B_packB_C_1);
    }
  }

  static void run_CPU3_H() throws InterruptedException {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU3_H_work_1 = f5.take();
      double v_CPU3_H_work_1 = sfun("work", 0.5, 0, new double[]{p_CPU3_H_work_1}) + 0.1 * 0;
      double v_CPU3_H_packH_L_1 = sfun("packH_L", 0.625, 0.30769230769230771, new double[]{v_CPU3_H_work_1}) + 0.1 * 0;
      f15.put(v_CPU3_H_packH_L_1);
    }
  }

  static void run_CPU3_L() throws InterruptedException {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU3_L_work_1 = f15.take();
      double v_CPU3_L_work_1 = sfun("work", 0.5, 0, new double[]{p_CPU3_L_work_1}) + 0.1 * 0;
      double v_CPU3_L_packL_J_1 = sfun("packL_J", 0.5, 0.30769230769230771, new double[]{v_CPU3_L_work_1}) + 0.1 * 0;
      f16.put(v_CPU3_L_packL_J_1);
    }
  }

  static void run_CPU0_C() throws InterruptedException {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU0_C_work_1 = f4.take();
      double v_CPU0_C_work_1 = sfun("work", 0.5, 0, new double[]{p_CPU0_C_work_1}) + 0.1 * 0;
      double v_CPU0_C_packC_G_1 = sfun("packC_G", 0.75, 0.076923076923076927, new double[]{v_CPU0_C_work_1}) + 0.1 * 0;
      f7.put(v_CPU0_C_packC_G_1);
      double v_CPU0_C_packC_D_1 = sfun("packC_D", 0.75, 0.76923076923076927, new double[]{v_CPU0_C_work_1}) + 0.1 * 0;
      f6.put(v_CPU0_C_packC_D_1);
    }
  }

  static void run_CPU2_G() throws InterruptedException {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU2_G_work_1 = f7.take();
      double v_CPU2_G_work_1 = sfun("work", 0.5, 0, new double[]{p_CPU2_G_work_1}) + 0.1 * 0;
      double v_CPU2_G_packG_M_1 = sfun("packG_M", 0.75, 0.61538461538461542, new double[]{v_CPU2_G_work_1}) + 0.1 * 0;
      f13.put(v_CPU2_G_packG_M_1);
    }
  }

  static void run_CPU2_M() throws InterruptedException {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU2_M_work_1 = f13.take();
      double v_CPU2_M_work_1 = sfun("work", 0.5, 0, new double[]{p_CPU2_M_work_1}) + 0.1 * 0;
      double v_CPU2_M_packM_J_1 = sfun("packM_J", 0.375, 0.23076923076923078, new double[]{v_CPU2_M_work_1}) + 0.1 * 0;
      f14.put(v_CPU2_M_packM_J_1);
    }
  }

  static void run_CPU0_D() throws InterruptedException {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU0_D_work_1 = f6.take();
      double v_CPU0_D_work_1 = sfun("work", 0.5, 0, new double[]{p_CPU0_D_work_1}) + 0.1 * 0;
      double v_CPU0_D_packD_F_1 = sfun("packD_F", 0.875, 0.69230769230769229, new double[]{v_CPU0_D_work_1}) + 0.1 * 0;
      f8.put(v_CPU0_D_packD_F_1);
    }
  }

  static void run_CPU0_F() throws InterruptedException {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU0_F_work_1 = f8.take();
      double v_CPU0_F_work_1 = sfun("work", 0.5, 0, new double[]{p_CPU0_F_work_1}) + 0.1 * 0;
      double v_CPU0_F_packF_J_1 = sfun("packF_J", 0.25, 0.92307692307692313, new double[]{v_CPU0_F_work_1}) + 0.1 * 0;
      f9.put(v_CPU0_F_packF_J_1);
    }
  }

  static void run_CPU0_J() throws InterruptedException {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU0_J_work_1 = f9.take();
      double p_CPU0_J_work_2 = f12.take();
      double p_CPU0_J_work_4 = f14.take();
      double p_CPU0_J_work_3 = f16.take();
      double v_CPU0_J_work_1 = sfun("work", 0.5, 0, new double[]{p_CPU0_J_work_1, p_CPU0_J_work_2, p_CPU0_J_work_3, p_CPU0_J_work_4}) + 0.1 * 0;
      f10.put(v_CPU0_J_work_1);
    }
  }

  public static void main(String[] args) throws InterruptedException {
    Thread[] workers = new Thread[12];
    workers[0] = new Thread(() -> { try { run_CPU0_A(); } catch (InterruptedException e) { Thread.currentThread().interrupt(); } });
    workers[1] = new Thread(() -> { try { run_CPU1_E(); } catch (InterruptedException e) { Thread.currentThread().interrupt(); } });
    workers[2] = new Thread(() -> { try { run_CPU1_I(); } catch (InterruptedException e) { Thread.currentThread().interrupt(); } });
    workers[3] = new Thread(() -> { try { run_CPU0_B(); } catch (InterruptedException e) { Thread.currentThread().interrupt(); } });
    workers[4] = new Thread(() -> { try { run_CPU3_H(); } catch (InterruptedException e) { Thread.currentThread().interrupt(); } });
    workers[5] = new Thread(() -> { try { run_CPU3_L(); } catch (InterruptedException e) { Thread.currentThread().interrupt(); } });
    workers[6] = new Thread(() -> { try { run_CPU0_C(); } catch (InterruptedException e) { Thread.currentThread().interrupt(); } });
    workers[7] = new Thread(() -> { try { run_CPU2_G(); } catch (InterruptedException e) { Thread.currentThread().interrupt(); } });
    workers[8] = new Thread(() -> { try { run_CPU2_M(); } catch (InterruptedException e) { Thread.currentThread().interrupt(); } });
    workers[9] = new Thread(() -> { try { run_CPU0_D(); } catch (InterruptedException e) { Thread.currentThread().interrupt(); } });
    workers[10] = new Thread(() -> { try { run_CPU0_F(); } catch (InterruptedException e) { Thread.currentThread().interrupt(); } });
    workers[11] = new Thread(() -> { try { run_CPU0_J(); } catch (InterruptedException e) { Thread.currentThread().interrupt(); } });
    for (Thread w : workers) w.start();
    for (int round = 0; round < ROUNDS; ++round) {
      double v_Input_1 = Math.sin((round + 6.0) / 5.0);
      f1.put(v_Input_1);
      System.out.printf("Result %d %.9f%n", round, f10.take());
    }
    for (Thread w : workers) w.join();
  }
}
