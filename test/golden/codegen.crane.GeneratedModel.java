/* Generated from CAAM model crane. */
import java.util.concurrent.ArrayBlockingQueue;

public final class GeneratedModel {
  static final int ROUNDS = 5;
  static final ArrayBlockingQueue<Double> f1 = new ArrayBlockingQueue<>(64); // SWFIFO: Position -> CPU1/Tsensor/sense
  static final ArrayBlockingQueue<Double> f2 = new ArrayBlockingQueue<>(64); // SWFIFO: CPU1/Tsensor/sense -> CPU1/Tcontrol/sub
  static final ArrayBlockingQueue<Double> f3 = new ArrayBlockingQueue<>(64); // SWFIFO: CPU1/Tcontrol/sat -> CPU1/Tactuator/drive
  static final ArrayBlockingQueue<Double> f4 = new ArrayBlockingQueue<>(64); // SWFIFO: CPU1/Tactuator/drive -> Voltage
  static double state_CPU1_Tcontrol_Delay1 = 0;

  static double sfun(String name, double a, double b, double[] in) {
    double total = 0.0;
    for (double x : in) total += x;
    return a * total + b;
  }

  static void run_CPU1_Tsensor() throws InterruptedException {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU1_Tsensor_sense_1 = f1.take();
      double v_CPU1_Tsensor_sense_1 = sfun("sense", 0.25, 0.46153846153846156, new double[]{p_CPU1_Tsensor_sense_1}) + 0.1 * 0;
      f2.put(v_CPU1_Tsensor_sense_1);
    }
  }

  static void run_CPU1_Tcontrol() throws InterruptedException {
    for (int round = 0; round < ROUNDS; ++round) {
      double snap_CPU1_Tcontrol_Delay1 = state_CPU1_Tcontrol_Delay1;
      double p_CPU1_Tcontrol_sub_1 = f2.take();
      double v_CPU1_Tcontrol_sub_1 = 0.0 + (p_CPU1_Tcontrol_sub_1) - (snap_CPU1_Tcontrol_Delay1);
      double v_CPU1_Tcontrol_control_1 = sfun("control", 0.375, 0.076923076923076927, new double[]{v_CPU1_Tcontrol_sub_1}) + 0.1 * 0;
      double v_CPU1_Tcontrol_sat_1 = Math.min(1, Math.max(-1, v_CPU1_Tcontrol_control_1));
      f3.put(v_CPU1_Tcontrol_sat_1);
      state_CPU1_Tcontrol_Delay1 = v_CPU1_Tcontrol_sat_1;
    }
  }

  static void run_CPU1_Tactuator() throws InterruptedException {
    for (int round = 0; round < ROUNDS; ++round) {
      double p_CPU1_Tactuator_drive_1 = f3.take();
      double v_CPU1_Tactuator_drive_1 = sfun("drive", 0.625, 0.69230769230769229, new double[]{p_CPU1_Tactuator_drive_1}) + 0.1 * 0;
      f4.put(v_CPU1_Tactuator_drive_1);
    }
  }

  public static void main(String[] args) throws InterruptedException {
    Thread[] workers = new Thread[3];
    workers[0] = new Thread(() -> { try { run_CPU1_Tsensor(); } catch (InterruptedException e) { Thread.currentThread().interrupt(); } });
    workers[1] = new Thread(() -> { try { run_CPU1_Tcontrol(); } catch (InterruptedException e) { Thread.currentThread().interrupt(); } });
    workers[2] = new Thread(() -> { try { run_CPU1_Tactuator(); } catch (InterruptedException e) { Thread.currentThread().interrupt(); } });
    for (Thread w : workers) w.start();
    for (int round = 0; round < ROUNDS; ++round) {
      double v_Position_1 = Math.sin((round + 3.0) / 5.0);
      f1.put(v_Position_1);
      System.out.printf("Voltage %d %.9f%n", round, f4.take());
    }
    for (Thread w : workers) w.join();
  }
}
