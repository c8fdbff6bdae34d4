#include "sfunctions.h"

/* Default affine behaviours; replace with the real algorithm
   implementations.  Constants mirror the reference simulator. */

void sfun_packA_B(const double *in, int n_in, double *out, int n_out) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  for (int j = 0; j < n_out; ++j)
    out[j] = 0.25 * total + 0.076923076923076927 + 0.1 * j;
}

void sfun_packA_E(const double *in, int n_in, double *out, int n_out) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  for (int j = 0; j < n_out; ++j)
    out[j] = 0.5 * total + 0.15384615384615385 + 0.1 * j;
}

void sfun_packB_C(const double *in, int n_in, double *out, int n_out) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  for (int j = 0; j < n_out; ++j)
    out[j] = 0.5 * total + 0.61538461538461542 + 0.1 * j;
}

void sfun_packB_H(const double *in, int n_in, double *out, int n_out) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  for (int j = 0; j < n_out; ++j)
    out[j] = 0.375 * total + 0.30769230769230771 + 0.1 * j;
}

void sfun_packC_D(const double *in, int n_in, double *out, int n_out) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  for (int j = 0; j < n_out; ++j)
    out[j] = 0.75 * total + 0.76923076923076927 + 0.1 * j;
}

void sfun_packC_G(const double *in, int n_in, double *out, int n_out) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  for (int j = 0; j < n_out; ++j)
    out[j] = 0.75 * total + 0.076923076923076927 + 0.1 * j;
}

void sfun_packD_F(const double *in, int n_in, double *out, int n_out) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  for (int j = 0; j < n_out; ++j)
    out[j] = 0.875 * total + 0.69230769230769229 + 0.1 * j;
}

void sfun_packE_I(const double *in, int n_in, double *out, int n_out) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  for (int j = 0; j < n_out; ++j)
    out[j] = 0.625 * total + 0.76923076923076927 + 0.1 * j;
}

void sfun_packF_J(const double *in, int n_in, double *out, int n_out) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  for (int j = 0; j < n_out; ++j)
    out[j] = 0.25 * total + 0.92307692307692313 + 0.1 * j;
}

void sfun_packG_M(const double *in, int n_in, double *out, int n_out) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  for (int j = 0; j < n_out; ++j)
    out[j] = 0.75 * total + 0.61538461538461542 + 0.1 * j;
}

void sfun_packH_L(const double *in, int n_in, double *out, int n_out) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  for (int j = 0; j < n_out; ++j)
    out[j] = 0.625 * total + 0.30769230769230771 + 0.1 * j;
}

void sfun_packI_J(const double *in, int n_in, double *out, int n_out) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  for (int j = 0; j < n_out; ++j)
    out[j] = 0.75 * total + 0.076923076923076927 + 0.1 * j;
}

void sfun_packL_J(const double *in, int n_in, double *out, int n_out) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  for (int j = 0; j < n_out; ++j)
    out[j] = 0.5 * total + 0.30769230769230771 + 0.1 * j;
}

void sfun_packM_J(const double *in, int n_in, double *out, int n_out) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  for (int j = 0; j < n_out; ++j)
    out[j] = 0.375 * total + 0.23076923076923078 + 0.1 * j;
}

void sfun_work(const double *in, int n_in, double *out, int n_out) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  for (int j = 0; j < n_out; ++j)
    out[j] = 0.5 * total + 0 + 0.1 * j;
}
