#ifndef UMLFRONT_SFUNCTIONS_H
#define UMLFRONT_SFUNCTIONS_H

void sfun_packA_B(const double *in, int n_in, double *out, int n_out);
void sfun_packA_E(const double *in, int n_in, double *out, int n_out);
void sfun_packB_C(const double *in, int n_in, double *out, int n_out);
void sfun_packB_H(const double *in, int n_in, double *out, int n_out);
void sfun_packC_D(const double *in, int n_in, double *out, int n_out);
void sfun_packC_G(const double *in, int n_in, double *out, int n_out);
void sfun_packD_F(const double *in, int n_in, double *out, int n_out);
void sfun_packE_I(const double *in, int n_in, double *out, int n_out);
void sfun_packF_J(const double *in, int n_in, double *out, int n_out);
void sfun_packG_M(const double *in, int n_in, double *out, int n_out);
void sfun_packH_L(const double *in, int n_in, double *out, int n_out);
void sfun_packI_J(const double *in, int n_in, double *out, int n_out);
void sfun_packL_J(const double *in, int n_in, double *out, int n_out);
void sfun_packM_J(const double *in, int n_in, double *out, int n_out);
void sfun_work(const double *in, int n_in, double *out, int n_out);

#endif
